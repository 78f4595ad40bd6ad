"""The ``repro bench`` micro-suite.

Design goals:

* **Fixed workloads.**  Every metric simulates a deterministic, pinned
  scenario, so numbers are comparable across commits on one machine.
* **Physics canary.**  The covert-trial metric also checks its decoded
  message and ground-truth stats against pinned values: a hot-path
  "optimization" that changes simulation results fails the bench before
  anyone trusts its speedup.
* **Trajectory, not thresholds.**  The bench writes
  ``BENCH_<timestamp>.json`` and reports ratios against the most recent
  previous file; it never fails on a slowdown (CI uses ``--quick`` as a
  smoke test only).

Timing uses the best of ``repeats`` runs (minimum wall time), which is
the standard way to suppress scheduler noise on shared machines.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.sim.config import RefreshPolicy, SystemConfig
from repro.sim.engine import NS, Simulator
from repro.system import MemorySystem

#: File-name prefix of benchmark result files at the repo root.
BENCH_PREFIX = "BENCH_"

#: Pinned expectations of the covert-trial canary (must match the
#: golden bit-identity test in ``tests/test_golden_identity.py``).
CANARY_SENT = [1, 0, 1, 1, 0, 0, 1, 0]
CANARY_BACKOFFS = 4


@dataclass(frozen=True)
class BenchConfig:
    """Scales of the micro-suite."""

    engine_events: int = 300_000
    controller_requests: int = 25_000
    scenario_builds: int = 300
    #: No-op trials pushed through the shards backend for the
    #: dispatch-overhead metric.
    dispatch_points: int = 64
    #: Cached-hit requests pushed through an in-process ``repro serve``
    #: for the HTTP fast-path metric.
    serve_requests: int = 300
    repeats: int = 3
    #: Include the full ``python -m repro report --no-cache`` subprocess
    #: wall measurement (skipped by ``--quick``).
    full_report: bool = True

    @classmethod
    def quick(cls) -> "BenchConfig":
        return cls(engine_events=60_000, controller_requests=6_000,
                   scenario_builds=50, dispatch_points=16,
                   serve_requests=80, repeats=1,
                   full_report=False)


# ----------------------------------------------------------------------
# Micro benchmarks
# ----------------------------------------------------------------------
def _bench_engine(n_events: int) -> float:
    """Raw engine dispatch rate (events/second).

    The schedule mix mirrors a memory simulation: a monotone fixed-delay
    chain (FIFO lane), interleaved immediate events (wake-ups) and
    occasional far-future events (refresh-style, heap lane).
    """
    sim = Simulator()
    state = {"count": 0}

    def noop() -> None:
        pass

    def tick() -> None:
        count = state["count"] = state["count"] + 1
        if count < n_events:
            sim.schedule(1 * NS, tick)
            if count % 3 == 0:
                sim.schedule(0, noop)
            if count % 64 == 0:
                sim.schedule(3900 * NS, noop)

    sim.schedule(1, tick)
    start = time.perf_counter()
    executed = sim.run()
    elapsed = time.perf_counter() - start
    return executed / elapsed


def _bench_controller(stream: str, n_requests: int) -> float:
    """Closed-loop request rate (requests/second) through the full
    system (controller + bank model + bus) for a row-hit or a
    row-conflict stream."""
    system = MemorySystem(SystemConfig(refresh_policy=RefreshPolicy.NONE))
    if stream == "hit":
        addrs = [system.mapper.encode(row=5, col=i % 64) for i in range(4)]
    elif stream == "conflict":
        addrs = [system.mapper.encode(row=r) for r in (5, 6)]
    else:  # pragma: no cover - internal suite definition
        raise ValueError(f"unknown stream {stream!r}")
    state = {"done": 0, "idx": 0}
    # The submit is the callback's tail call -- exactly the closed-loop
    # shape the wake-elision fast path serves (submit_tail falls back
    # to the deferred-wake path whenever elision is unsafe or off).
    submit = system.submit_tail

    def callback(req) -> None:
        done = state["done"] = state["done"] + 1
        if done < n_requests:
            idx = state["idx"] = (state["idx"] + 1) % len(addrs)
            submit(addrs[idx], callback)

    start = time.perf_counter()
    submit(addrs[0], callback)
    system.sim.run(until=1 << 60)
    elapsed = time.perf_counter() - start
    if state["done"] < n_requests:  # pragma: no cover - defensive
        raise RuntimeError("controller bench did not complete")
    return state["done"] / elapsed


def _bench_covert_trial() -> tuple[float, dict]:
    """One fixed-seed noisy PRAC covert-channel trial: wall seconds plus
    the physics canary (decoded message + ground-truth back-offs)."""
    from repro.core.prac_channel import PracChannelConfig, PracCovertChannel

    channel = PracCovertChannel(PracChannelConfig(noise_intensity=30.0))
    start = time.perf_counter()
    result = channel.transmit(list(CANARY_SENT))
    elapsed = time.perf_counter() - start
    canary = {
        "decoded": result.decoded,
        "ground_truth_backoffs": result.ground_truth_backoffs,
        "ok": (result.decoded == CANARY_SENT
               and result.ground_truth_backoffs == CANARY_BACKOFFS),
    }
    return elapsed, canary


def _bench_covert_steadystate() -> tuple[float, float, bool]:
    """The steady-state-dominated covert trial: the PRAC sender +
    receiver channel with long (200 us) windows, where idle and
    post-back-off stretches dominate and the receiver's fast-forward
    jumps through the sender's idle windows should be carrying the
    run.  Returns the FF-on wall seconds, the FF-off wall seconds, and
    a bit-identity check of the two worlds (decoded message + ground
    truth -- the equivalence canary for the jump engine itself)."""
    from repro.core.prac_channel import PracChannelConfig, PracCovertChannel
    from repro.sim import fastforward

    def one_world(mode: str):
        with fastforward.forced(mode):
            channel = PracCovertChannel(
                PracChannelConfig(window_ps=200_000_000))
            start = time.perf_counter()
            result = channel.transmit(list(CANARY_SENT))
            return time.perf_counter() - start, result

    off_seconds, off = one_world("off")
    on_seconds, on = one_world("on")
    identical = (on.decoded == off.decoded
                 and on.ground_truth_backoffs == off.ground_truth_backoffs
                 and on.ground_truth_rfms == off.ground_truth_rfms)
    return on_seconds, off_seconds, identical


class _CountingDict(dict):
    """A totals dict that counts item writes (telemetry canary)."""

    writes = 0

    def __setitem__(self, key, value) -> None:
        _CountingDict.writes += 1
        super().__setitem__(key, value)


@contextlib.contextmanager
def _counting_telemetry_writes():
    """Count every telemetry write made inside the block: registry
    metric mutations plus writes into the engine and fast-forward
    totals the registry samples.  Yields a zero-argument reader."""
    from repro.obs import metrics as obs_metrics
    from repro.sim import engine, fastforward

    _CountingDict.writes = 0
    patched = []
    for cls, name in ((obs_metrics.Counter, "inc"),
                      (obs_metrics.Gauge, "set"),
                      (obs_metrics.Gauge, "inc"),
                      (obs_metrics.Histogram, "observe")):
        original = cls.__dict__[name]

        def counting(self, *args, _original=original, **kwargs):
            _CountingDict.writes += 1
            return _original(self, *args, **kwargs)
        setattr(cls, name, counting)
        patched.append((cls, name, original))
    totals = ((engine, "_GLOBAL_COUNTERS"), (fastforward, "_totals"))
    saved = [getattr(module, attr) for module, attr in totals]
    for (module, attr), real in zip(totals, saved):
        setattr(module, attr, _CountingDict(real))
    try:
        yield lambda: _CountingDict.writes
    finally:
        for (module, attr), real in zip(totals, saved):
            real.update(getattr(module, attr))
            setattr(module, attr, real)
        for cls, name, original in patched:
            setattr(cls, name, original)


def _telemetry_writes_per_run(n_events: int) -> tuple[int, int]:
    """(telemetry writes, fast-forward jumps) of one ``run()`` of an
    ``n_events``-event engine chain plus one ``run()`` of a row-hit
    probe lasting about ``n_events // 10`` iterations.  Refresh ticks
    end every jump, so the probe's jump count grows with its length
    and a per-jump write would show."""
    from repro.cpu.probe import LatencyProbe
    from repro.sim import fastforward
    from repro.sim.config import DefenseKind, DefenseParams

    with fastforward.forced("on"):
        system = MemorySystem(SystemConfig(
            defense=DefenseParams(kind=DefenseKind.PRAC, nbo=64),
            refresh_policy=RefreshPolicy.EVERY_TREFI))
    stop = (n_events // 10) * 50 * NS  # a row hit takes ~45 ns
    probe = LatencyProbe(system, [system.mapper.encode(row=5)],
                         stop_time=stop)
    probe.start()
    with _counting_telemetry_writes() as writes:
        _bench_engine(n_events)
        system.sim.run(until=stop + 1000 * NS)
    return writes(), system.fast_forward.jumps


def _pinned_scenario():
    """A fixed probe scenario exercising the declarative layer end to
    end (spec round-trip, registry resolution, build, run)."""
    from repro.scenario import AgentSpec, ScenarioSpec, StopSpec
    from repro.sim.config import DefenseKind, DefenseParams

    return ScenarioSpec(
        name="bench-probe",
        system=SystemConfig(
            defense=DefenseParams(kind=DefenseKind.PRAC, nbo=64)),
        agents=(AgentSpec("probe", params={
            "bank": (0, 0), "rows": (0, 8), "max_samples": 400}),),
        stop=StopSpec(50_000_000_000))


def _bench_scenario_build(n_builds: int) -> float:
    """Declarative-layer overhead: (to_dict -> from_dict -> build)
    cycles per second -- what a sharded sweep pays per shipped trial
    before any simulation runs."""
    from repro.scenario import ScenarioSpec

    spec = _pinned_scenario()
    start = time.perf_counter()
    for _ in range(n_builds):
        ScenarioSpec.from_dict(spec.to_dict()).build()
    elapsed = time.perf_counter() - start
    return n_builds / elapsed


def _bench_scenario_trial() -> float:
    """One pinned probe scenario, spec-to-result (build + run +
    measurement collection)."""
    spec = _pinned_scenario()
    start = time.perf_counter()
    result = spec.run()
    elapsed = time.perf_counter() - start
    if len(result.agent("probe").samples) != 400:  # pragma: no cover
        raise RuntimeError("scenario bench did not complete")
    return elapsed


def _dispatch_trial(point):
    """No-op trial: every microsecond it takes round-trip is backend
    dispatch overhead, not work."""
    return point


def _bench_backend_dispatch(n_points: int) -> float:
    """Wall seconds to push ``n_points`` no-op trials through the
    ``shards`` backend with 2 workers — serialization, scheduling, and
    pipe round-trips, with zero simulation inside.  The first repeat
    pays the fleet spawn; best-of-N reports the steady (fleet reused)
    dispatch cost a real sweep sees per batch.
    """
    from repro.dist import get_backend

    backend = get_backend("shards")
    points = list(range(n_points))
    start = time.perf_counter()
    out = backend.run(_dispatch_trial, points, [None] * n_points,
                      workers=2)
    elapsed = time.perf_counter() - start
    if out != points:  # pragma: no cover - defensive
        raise RuntimeError("backend dispatch bench returned wrong results")
    return elapsed


def _bench_fleet_dispatch(n_points: int) -> float:
    """Wall seconds to push ``n_points`` no-op trials through a
    remote-only TCP fleet on localhost: the same coordinator machinery
    as the stdio metric, plus socket round-trips instead of pipe
    writes.  Two ``repro worker --connect`` processes dial in and
    authenticate once; a small warm batch absorbs the dial-in and
    handshake, so the measured batch is the steady per-batch dispatch
    cost a cross-machine sweep sees.
    """
    from repro.dist.shards import ShardsBackend

    secret = "bench-fleet-secret"
    backend = ShardsBackend(listen="127.0.0.1:0", secret=secret,
                            spawn_local=False, join_wait=30.0)
    procs = []
    try:
        env = dict(os.environ)
        env["REPRO_FLEET_SECRET"] = secret
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        for _ in range(2):
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--no-warm",
                 "--connect", backend.server.address],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=env))
        warm = list(range(4))
        backend.run(_dispatch_trial, warm, [None] * len(warm), workers=2)
        points = list(range(n_points))
        start = time.perf_counter()
        out = backend.run(_dispatch_trial, points, [None] * n_points,
                          workers=2)
        elapsed = time.perf_counter() - start
        if out != points:  # pragma: no cover - defensive
            raise RuntimeError(
                "fleet dispatch bench returned wrong results")
        return elapsed
    finally:
        backend.close()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()


def _bench_serve(n_requests: int) -> tuple[float, float]:
    """The server's cached-hit fast path: ``(best_latency_s, req/s)``.

    Primes a throwaway result cache with the fig3 quick result, then
    POSTs the identical submission ``n_requests`` times over one
    keep-alive connection to an in-process server.  Every request must
    come back 200/cached (a 202 would mean the hit path broke and the
    numbers measure simulation, not serving).
    """
    import http.client
    import shutil
    import tempfile

    from repro.exp.cache import ResultCache
    from repro.exp.runner import run_experiment
    from repro.serve.server import ServerThread

    tmp = tempfile.mkdtemp(prefix="repro-bench-serve-")
    try:
        cache = ResultCache(tmp)
        run_experiment("fig3", {"text": "MI", "pattern_bits": 8},
                       cache=cache)
        body = json.dumps(
            {"params": {"text": "MI", "pattern_bits": 8}}).encode()
        with ServerThread(cache=cache) as srv:
            host, port = srv.address
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                latencies = []
                start = time.perf_counter()
                for _ in range(n_requests):
                    t0 = time.perf_counter()
                    conn.request("POST", "/v1/experiments/fig3",
                                 body=body)
                    response = conn.getresponse()
                    payload = response.read()
                    latencies.append(time.perf_counter() - t0)
                    if response.status != 200:  # pragma: no cover
                        raise RuntimeError(
                            f"serve bench got {response.status}: "
                            f"{payload[:200]!r}")
                total = time.perf_counter() - start
            finally:
                conn.close()
        return min(latencies), n_requests / total
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _bench_report_slice() -> float:
    """One quick-report slice (the fig3 PRAC message experiment), run
    in-process with the cache disabled."""
    from repro.exp.runner import run_experiment

    start = time.perf_counter()
    run_experiment("fig3", {"text": "MI", "pattern_bits": 8},
                   use_cache=False)
    return time.perf_counter() - start


def _bench_full_report() -> float:
    """Wall time of ``python -m repro report --no-cache`` as users run
    it (fresh interpreter, import cost included)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--no-cache"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:  # pragma: no cover - defensive
        raise RuntimeError(
            f"report --no-cache exited with {proc.returncode}")
    return elapsed


def _best(fn, repeats: int):
    """Best-of-N: max for rates, caller picks min for durations."""
    return [fn() for _ in range(max(1, repeats))]


# ----------------------------------------------------------------------
# Suite driver
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _gc_paused():
    """The harness owns its measurement conditions: every entry point
    (``python -m repro bench`` and ``python -m repro.perf`` alike)
    measures with the cyclic GC paused, exactly as the tuned CLI runs
    simulations.  Gen-0 collections cost several percent of wall time
    and would skew any entry point that forgot to pause."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


def collect_metrics(config: BenchConfig,
                    log=lambda msg: None) -> dict:
    """Run the micro-suite (GC paused); returns the metrics dict."""
    with _gc_paused():
        return _collect_metrics_inner(config, {}, log)


def _collect_metrics_inner(config, metrics, log):
    log("engine: raw event dispatch ...")
    rates = _best(lambda: _bench_engine(config.engine_events),
                  config.repeats)
    metrics["engine_events_per_sec"] = round(max(rates))

    log("controller: row-hit stream ...")
    rates = _best(
        lambda: _bench_controller("hit", config.controller_requests),
        config.repeats)
    metrics["controller_hit_requests_per_sec"] = round(max(rates))

    log("controller: row-conflict stream ...")
    rates = _best(
        lambda: _bench_controller("conflict", config.controller_requests),
        config.repeats)
    metrics["controller_conflict_requests_per_sec"] = round(max(rates))

    log("covert channel: one noisy PRAC trial ...")
    times = []
    canary: dict = {}
    for _ in range(max(1, config.repeats)):
        elapsed, canary = _bench_covert_trial()
        times.append(elapsed)
    metrics["covert_trial_seconds"] = round(min(times), 4)
    metrics["covert_trial_canary_ok"] = bool(canary.get("ok"))

    log("covert channel: steady-state trial (ff off vs on) ...")
    on_times, off_times, identical = [], [], True
    for _ in range(max(1, config.repeats)):
        on_s, off_s, same = _bench_covert_steadystate()
        on_times.append(on_s)
        off_times.append(off_s)
        identical = identical and same
    metrics["covert_steadystate_trial_seconds"] = round(min(on_times), 4)
    metrics["covert_steadystate_ff_speedup"] = round(
        min(off_times) / min(on_times), 2)
    metrics["covert_steadystate_identical"] = identical

    log("scenario: spec round-trip + build ...")
    rates = _best(lambda: _bench_scenario_build(config.scenario_builds),
                  config.repeats)
    metrics["scenario_build_per_sec"] = round(max(rates))

    log("scenario: pinned probe trial ...")
    times = _best(_bench_scenario_trial, config.repeats)
    metrics["scenario_trial_seconds"] = round(min(times), 4)

    log("dist: shards backend dispatch overhead ...")
    times = _best(
        lambda: _bench_backend_dispatch(config.dispatch_points),
        config.repeats)
    metrics["backend_dispatch_overhead_seconds"] = round(min(times), 4)

    log("dist: TCP fleet dispatch overhead (localhost) ...")
    # One pass, not best-of-N: the run spawns its own private fleet
    # and absorbs the handshake with an internal warm batch.
    metrics["fleet_dispatch_overhead_seconds"] = round(
        _bench_fleet_dispatch(config.dispatch_points), 4)

    log("serve: cached-hit HTTP fast path ...")
    # One call, not best-of-N: the run streams n_requests through a
    # single keep-alive connection and takes its own per-request best.
    latency, rate = _bench_serve(config.serve_requests)
    metrics["serve_cached_hit_latency_seconds"] = round(latency, 5)
    metrics["serve_cached_requests_per_sec"] = round(rate)

    log("telemetry: writes-per-run canary (N vs 10N events) ...")
    # Engine and fast-forward counters reach the telemetry registry
    # only at run() exit, so a run() makes the same number of
    # telemetry writes whatever its length.  A count that grows with
    # the event count means a per-event (or per-jump) write crept into
    # the hot loop.  Deterministic: counted, not timed.
    writes_n, jumps_n = _telemetry_writes_per_run(config.engine_events)
    writes_10n, jumps_10n = _telemetry_writes_per_run(
        10 * config.engine_events)
    metrics["telemetry_overhead_canary_ok"] = (
        writes_n == writes_10n and 0 < jumps_n < jumps_10n)

    log("telemetry: engine overhead (registry off vs on, reported) ...")
    # The wall-clock delta is reported, never gated: on a shared host
    # it reads several percent of pure noise either way.
    from repro.obs import metrics as obs_metrics
    canary_repeats = max(5, config.repeats)
    was_enabled = obs_metrics.enabled()
    off_rate = on_rate = 0.0
    try:
        # Interleave the two states (alternating order) so frequency
        # scaling / scheduler drift lands on both sides equally; a
        # sequential A*N-then-B*N layout reads drift as "overhead".
        for i in range(canary_repeats):
            order = (False, True) if i % 2 == 0 else (True, False)
            for state in order:
                obs_metrics.set_enabled(state)
                rate = _bench_engine(config.engine_events)
                if state:
                    on_rate = max(on_rate, rate)
                else:
                    off_rate = max(off_rate, rate)
    finally:
        obs_metrics.set_enabled(was_enabled)
    overhead_pct = max(0.0, (off_rate - on_rate) / off_rate * 100.0)
    metrics["telemetry_engine_overhead_pct"] = round(overhead_pct, 2)

    log("report slice: fig3 (no cache) ...")
    times = _best(_bench_report_slice, config.repeats)
    metrics["report_slice_seconds"] = round(min(times), 4)

    if config.full_report:
        log("full report: python -m repro report --no-cache ...")
        times = _best(_bench_full_report, config.repeats)
        metrics["report_no_cache_seconds"] = round(min(times), 4)
    return metrics


def find_previous(root: Path, quick: bool | None = None) -> Path | None:
    """Most recent ``BENCH_*.json`` at ``root`` (timestamped names sort
    chronologically).

    With ``quick`` set, only files whose recorded ``quick`` flag matches
    are considered: quick-scale and full-scale numbers are not
    comparable, and a stray ``--quick`` run next to the committed
    full-scale trajectory must not silently become the baseline.
    """
    for path in sorted(root.glob(f"{BENCH_PREFIX}*.json"), reverse=True):
        if quick is None:
            return path
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if bool(doc.get("quick")) == quick:
            return path
    return None


def compare(current: dict, previous: dict) -> dict:
    """Per-metric ratios vs a previous run.

    Rates report ``current/previous`` and durations
    ``previous/current``, so >1.0 always means "faster now".
    """
    out = {}
    prev_metrics = previous.get("metrics", {})
    for key, value in current["metrics"].items():
        prev = prev_metrics.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if not isinstance(prev, (int, float)) or isinstance(prev, bool):
            continue
        if prev <= 0 or value <= 0:
            continue
        if key.endswith("_seconds"):
            ratio = prev / value
        else:
            ratio = value / prev
        out[key] = {"previous": prev, "speedup": round(ratio, 3)}
    return out


def metric_set_diff(current: dict, previous: dict) -> dict:
    """Metric names present in only one of two BENCH docs.

    :func:`compare` silently skips metrics missing from either side
    (and tests pin that behaviour), so a comparison between two runs
    with disjoint metric sets looks deceptively empty.  This reports
    what the ratio table cannot: ``added`` names exist only in
    ``current``, ``removed`` only in ``previous``.
    """
    cur = set(current.get("metrics", {}))
    prev = set(previous.get("metrics", {}))
    return {"added": sorted(cur - prev), "removed": sorted(prev - cur)}


def run_bench(*, quick: bool = False, label: str | None = None,
              out_dir: str | os.PathLike | None = None,
              no_compare: bool = False,
              log=lambda msg: None) -> dict:
    """Run the suite, write ``BENCH_<timestamp>.json``, return the doc.

    ``out_dir`` defaults to the current working directory (the repo
    root when invoked as ``python -m repro bench`` from a checkout).
    """
    config = BenchConfig.quick() if quick else BenchConfig()
    root = Path(out_dir) if out_dir is not None else Path.cwd()
    root.mkdir(parents=True, exist_ok=True)

    doc: dict = {
        "schema": 1,
        "label": label or ("quick" if quick else "full"),
        "quick": quick,
        "timestamp": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "metrics": collect_metrics(config, log=log),
    }

    previous = None if no_compare else find_previous(root, quick=quick)
    if previous is not None:
        with open(previous) as handle:
            try:
                prev_doc = json.load(handle)
            except json.JSONDecodeError:
                prev_doc = None
        if prev_doc is not None:
            doc["comparison"] = {
                "against": previous.name,
                "previous_label": prev_doc.get("label"),
                "ratios": compare(doc, prev_doc),
                **metric_set_diff(doc, prev_doc),
            }

    out_path = root / f"{BENCH_PREFIX}{doc['timestamp']}.json"
    suffix = 1
    while out_path.exists():  # same-second rerun: keep both
        suffix += 1
        # '_' sorts after '.', so find_previous's name sort still picks
        # the latest rerun of the second.
        out_path = root / f"{BENCH_PREFIX}{doc['timestamp']}_{suffix}.json"
    with open(out_path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    doc["path"] = str(out_path)
    return doc
