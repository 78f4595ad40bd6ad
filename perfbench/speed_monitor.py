"""Sample the host's current speed until terminated.

    python3 perfbench/speed_monitor.py OUT PERIOD

Every PERIOD seconds (back to back with 0) it runs one fixed
``SLICE_EVENTS``-event slice of the calibration loop in
:mod:`bench_util` and appends ``<perf_counter> <CPU seconds>`` to OUT.
The CPU time of a slice tracks the speed of whichever core ran it at
that moment; a pass timed between two instants is scaled by the
slices that fall between them (see :class:`bench_util.SpeedMonitor`).
It prints ``ready`` once it is safe to terminate, and on SIGTERM it
flushes OUT and exits 0.
"""

from __future__ import annotations

import signal
import sys
import time

import bench_util as util


def main(argv: list[str]) -> int:
    period = float(argv[1])
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(argv[0], "w") as out:
        print("ready", flush=True)
        while True:
            start = time.thread_time()
            util._event_loop(util.SLICE_EVENTS)
            cpu = time.thread_time() - start
            out.write(f"{time.perf_counter()} {cpu}\n")
            if period:
                time.sleep(period)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
