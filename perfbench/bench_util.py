"""Shared plumbing of the benchmark: paths, statistics, outcome tally,
pinned goldens and the result line.

Nothing here imports the program under test; the workload modules do
that after :func:`prepare_program_path` has pointed ``sys.path`` at the
checkout's ``src/`` tree.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for result caches, span files and server logs.  It
#: lives inside the checkout and is listed in the root .gitignore.
WORK = ROOT / ".perfbench"
GOLDEN_PATH = HERE / "golden.json"

#: The documented seeds: the default one, and a held-out one that no
#: tuning of the benchmark looked at.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def prepare_program_path() -> None:
    """Make ``import repro`` resolve to the checkout's source tree, for
    this process and every process it starts."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p]
    if src not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)


def work_dir(name: str) -> Path:
    """A fresh, empty directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------
#: Seconds of 25 000 events of :func:`_event_loop` at the reference host
#: speed; timings are scaled to that speed (see :func:`scaled` and
#: :class:`SpeedMonitor`).
CAL_REF_S = 0.025
#: Events in one calibration slice (about 1 ms).
SLICE_EVENTS = 1_000


class _Bank:
    __slots__ = ("open_row", "acts", "busy_until")

    def __init__(self) -> None:
        self.open_row = -1
        self.acts: dict[int, int] = {}
        self.busy_until = 0

    def access(self, now: int, row: int) -> int:
        if row == self.open_row:
            latency = 15
        else:
            self.acts[row] = self.acts.get(row, 0) + 1
            self.open_row = row
            latency = 45
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + latency
        return self.busy_until


def calibrate() -> float:
    """Median seconds of three slices of :func:`_event_loop`, scaled to
    25 000 events; the median shrugs off an interrupt that lands in one
    slice."""
    return (statistics.median(_event_loop(SLICE_EVENTS) for _ in range(3))
            * 25_000 / SLICE_EVENTS)


def _event_loop(n: int) -> float:
    """Seconds taken by a fixed pure-Python discrete-event loop (heap
    queue, slotted objects, method calls) -- the interpreter work mix of
    the simulator, written here so no change to the program can move
    it.  It tracks the host's current speed."""
    start = time.perf_counter()
    banks = [_Bank() for _ in range(8)]
    queue = [(0, i, i % 8) for i in range(16)]
    heapq.heapify(queue)
    seq, x = 16, 12345
    for _ in range(n):
        now, _id, bank = heapq.heappop(queue)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        done = banks[bank].access(now, x % 64)
        seq += 1
        heapq.heappush(queue, (done + (x & 31), seq, (bank + (x >> 5)) % 8))
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """A sample timed between two :func:`calibrate` readings, expressed
    at the reference host speed.

    The shared host this benchmark was built on drifts between speed
    phases lasting from a tenth of a second to tens of seconds: the same
    pure-Python loop reads up to 80% slower in one phase than in
    another, and each vCPU drifts on its own.  Scaling by ``CAL_REF_S``
    over the mean of the readings taken right before and right after a
    sample cancels the drift, as long as the sample is short and ran on
    this process's core: the batch read-backs.  Longer work is scaled by
    a :class:`SpeedMonitor` instead.
    """
    return seconds * CAL_REF_S / ((before + after) / 2.0)


def measuring_cpu() -> int:
    """The core that in-process passes, set-ups and the server are
    pinned to, together with their :class:`SpeedMonitor`."""
    return min(os.sched_getaffinity(0))


def pinned_to(cpu: int | None):
    """A ``preexec_fn`` that pins a child process to ``cpu`` (None: no
    pinning)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


class SpeedMonitor:
    """Host speed sampled *during* timed work, as a context manager.

    Each core drifts between speed phases on its own, often several
    times within one pass, so readings taken before and after a pass
    miss most of what the pass saw.  This runs ``speed_monitor.py``,
    which times a fixed ~1 ms slice of the calibration loop every
    ``PERIOD_S`` seconds, costing about 5% of one core:

    * ``cpu=None`` (pool passes): the slices land on whichever core the
      scheduler gives them, which is mostly a core the pool is using,
      at the times it is using it.
    * ``cpu=N``: the monitor is pinned to core N, and so is the work it
      measures (this process for in-process passes; set-up probes and
      the server by :func:`pinned_to`), so it samples exactly the core
      the work runs on.

    The cost is the same for every commit, and the slices do not depend
    on the program, so a real speed-up passes straight through.
    """

    PERIOD_S = 0.02
    #: Width of the time bins whose median slice stands for that bin.
    BIN_S = 0.1

    def __init__(self, name: str, cpu: int | None = None) -> None:
        self.path = WORK / f"speed-{name}-{os.getpid()}.txt"
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []

    def __enter__(self) -> "SpeedMonitor":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed_monitor.py"), str(self.path),
             str(self.PERIOD_S)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            preexec_fn=pinned_to(self.cpu))
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("speed monitor failed to start")
        return self

    def __exit__(self, *_exc) -> None:
        """Stop the monitor, wait for it, and load its samples."""
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)
        if self.path.exists():
            with open(self.path) as lines:
                self.samples = [tuple(map(float, line.split()))
                                for line in lines if line.strip()]
            self.path.unlink()

    def factor(self, start: float, end: float) -> float:
        """Reference host speed over the speed in a window, by the
        slices timed in it: the median slice of each ``BIN_S`` bin (so
        one interrupted slice does not count), averaged over the bins
        (so the window's slow and fast phases count by duration)."""
        bins: dict[int, list[float]] = {}
        for t, cpu in self.samples:
            if start <= t <= end:
                bins.setdefault(int((t - start) / self.BIN_S), []).append(cpu)
        if not bins:
            raise RuntimeError("speed monitor took no sample in a window")
        slice_s = statistics.mean(statistics.median(v)
                                  for v in bins.values())
        return CAL_REF_S * SLICE_EVENTS / 25_000 / slice_s

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference host speed."""
        return (end - start) * self.factor(start, end)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def registry_totals(snapshot: dict) -> dict[str, float]:
    """A ``repro.obs.metrics`` snapshot document (in-process or from a
    server's ``/metrics?format=json``) as ``{metric: summed value}``."""
    return {name: float(sum(s["value"] for s in entry["samples"]))
            for name, entry in snapshot.items()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus the largest peak of
    any child it has waited for (``getrusage`` keeps no per-child sum),
    in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------
class Tally:
    """Attempted/failed operations plus the reason of every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(why)
        log(f"FAIL: {why}")

    def check(self, condition: bool, why: str) -> bool:
        """Count one checked operation; a false condition is a failure."""
        if condition:
            self.ok()
        else:
            self.fail(why)
        return condition


class Pins:
    """Values that must repeat exactly: the first sighting of a name is
    pinned, every later sighting is compared against it, and a golden
    recorded for this workload and seed (if any) is compared too."""

    def __init__(self, tally: Tally, golden: dict | None) -> None:
        self.tally = tally
        self.golden = golden or {}
        self.seen: dict[str, object] = {}

    def pin(self, name: str, value) -> None:
        first = self.seen.setdefault(name, value)
        self.tally.check(first == value,
                         f"{name} changed within the run: {first} -> {value}")
        if name in self.golden:
            self.tally.check(self.golden[name] == value,
                             f"{name} = {value}, pinned golden "
                             f"{self.golden[name]}")


def load_golden(workload: str, seed: int, scale: str) -> dict | None:
    try:
        doc = json.loads(GOLDEN_PATH.read_text())
    except FileNotFoundError:
        return None
    return doc.get(scale, {}).get(workload, {}).get(str(seed))


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def result_line(tally: Tally, metrics: dict[str, tuple[float, str]]) -> str:
    """The one-line JSON verdict (always the last line of stdout)."""
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, sort_keys=False)
