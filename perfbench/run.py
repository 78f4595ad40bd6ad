"""Run one benchmark workload and print its verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: covert-sweep, countermeasure-perf, fingerprint, serve-mixed
(see perfbench/README.md).  Run it from the root of a checkout: it
imports the program from ``src/`` and keeps its scratch files under
``.perfbench/``.

``--trace 0`` measures for about ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` makes one traced run that reports the
per-layer metrics and writes a span file.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; everything else goes to
standard error.

``--scale tiny`` shrinks every workload for the self-test, and
``--record-golden`` stores this run's pinned values in golden.json.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import json
import os
import subprocess
import sys
import time
import traceback
import uuid

import bench_util as util
from bench_util import Pins, Tally, log, median, percentile

WORKLOAD_NAMES = ("covert-sweep", "countermeasure-perf", "fingerprint",
                  "serve-mixed")
#: Every experiment whose wall time is reported per layer.
EXPERIMENT_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig12", "fig13")
#: Passes per timed run: at least MIN_PASSES, more while they fit.
MIN_PASSES = 3
MAX_PASSES = 50
#: Set-up repetitions whose median is ``setup_s``.
SETUP_SAMPLES = {"serve-mixed": 3}
SETUP_SAMPLES_DEFAULT = 5
#: Workers (pool processes) of the batch workloads; the host has 2 cores.
WORKERS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=util.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Hermetic runs: no ambient switch may pick the backend, fast-forward
    # mode, telemetry or tracing for the program under test.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    try:
        util.prepare_program_path()
    except util.ProgramMissing as exc:
        log(f"error: {exc}")
        return 2
    real_stdout = sys.stdout
    tally = Tally()
    golden = util.load_golden(args.workload, args.seed, args.scale)
    pins = Pins(tally, None if args.record_golden else golden)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if args.workload == "serve-mixed":
                runner = serve_traced if args.trace else serve_timed
            else:
                runner = batch_traced if args.trace else batch_timed
            metrics = runner(args, tally, pins)
    except Exception:  # noqa: BLE001 - report, print no verdict
        log("benchmark aborted:\n" + traceback.format_exc())
        return 1
    if args.trace:
        metrics["failed_frac"] = (tally.failed / tally.attempted
                                  if tally.attempted else 1.0, "ratio")
    if args.record_golden:
        record_golden(args, pins.seen)
    for why in tally.problems:
        log(f"problem: {why}")
    print(util.result_line(tally, metrics), file=real_stdout, flush=True)
    return 0


#: Pinned names that are program *outputs* and so must hold across
#: commits.  Engine event and fast-forward jump counts are mechanism
#: counts: a correct optimisation may change them, so they are pinned
#: only within a run (pass to pass, untraced to traced).
GOLDEN_PREFIXES = ("checksum.", "defenses.preventive_actions")


def record_golden(args, pinned: dict) -> None:
    pinned = {k: v for k, v in pinned.items()
              if k.startswith(GOLDEN_PREFIXES)}
    try:
        doc = json.loads(util.GOLDEN_PATH.read_text())
    except FileNotFoundError:
        doc = {}
    entry = (doc.setdefault(args.scale, {}).setdefault(args.workload, {})
             .setdefault(str(args.seed), {}))
    entry.update(pinned)
    util.GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                + "\n")
    log(f"recorded {len(pinned)} golden values")


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def probe_setup(workload: str, cpu: int) -> tuple[float, float]:
    """One fresh-interpreter set-up (imports, registry, source hash) on
    core ``cpu``; returns its window, from spawn to its 'ready' line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(util.HERE / "setup_probe.py"), workload],
        cwd=util.ROOT, stdout=subprocess.PIPE, text=True,
        preexec_fn=util.pinned_to(cpu))
    try:
        line = proc.stdout.readline()
        end = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return start, end


def timed_setups(workload: str) -> list[float]:
    """``SETUP_SAMPLES_DEFAULT`` set-ups, each scaled by a monitor on
    the core it ran on."""
    cpu = util.measuring_cpu()
    with util.SpeedMonitor(f"{workload}-setup", cpu) as monitor:
        windows = [probe_setup(workload, cpu)
                   for _ in range(SETUP_SAMPLES_DEFAULT)]
    log("set-up samples, raw s: "
        + ", ".join(f"{end - start:.3f}" for start, end in windows))
    return [monitor.scaled(start, end) for start, end in windows]


def keep_running(started: float, walls: list[float], seconds: float) -> bool:
    """Start another pass while it fits in the measuring window."""
    if len(walls) < MIN_PASSES:
        return True
    if len(walls) >= MAX_PASSES:
        return False
    return time.perf_counter() - started + median(walls) <= seconds


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def _batch(args):
    from bench_batch import SCALES, WORKLOADS

    return WORKLOADS[args.workload](args.seed, SCALES[args.scale])


@contextlib.contextmanager
def gc_paused():
    """Run a timed region the way ``repro run`` and the serve job runner
    run simulations: cyclic GC paused, one collection at the end (so the
    benchmark's own heap cannot add collection pauses to a sample)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def _counters() -> tuple[dict, dict]:
    from repro.sim import engine, fastforward

    return engine.global_counters(), fastforward.totals()


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _verify_pass(wl, results: dict, tally, pins) -> None:
    from repro.exp.cache import canonical_checksum

    for label, value in results.items():
        pins.pin(f"checksum.{label}", canonical_checksum(value))
    wl.check(results, tally)


#: Read-backs timed between two calibration readings (see _read_back).
HIT_GROUP = 10


def _read_back(wl, cache, results: dict, indices: range, tally
               ) -> tuple[list[float], list[float]]:
    """Cached answers cycling over the pass's results (answer ``i`` reads
    result ``i mod n``), each timed as the server answers a hit: read it
    from the cache and compute its canonical checksum, which must match
    the pass's own result.

    Returns the times in ms, raw and at the reference host speed.  Every
    ``HIT_GROUP`` answers (a few ms) are bracketed by two short readings
    of :func:`bench_util.calibrate`, close enough in time that this
    core's speed phase rarely changes in between."""
    from repro.exp.cache import canonical_checksum

    labels = list(results)
    expected = {label: canonical_checksum(results[label])
                for label in labels}
    raw, scaled = [], []
    before = util.calibrate()
    for first in range(0, len(indices), HIT_GROUP):
        group = []
        for i in indices[first:first + HIT_GROUP]:
            label = labels[i % len(labels)]
            start = time.perf_counter()
            try:
                checksum = canonical_checksum(wl.read_back(cache, label,
                                                           WORKERS))
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                tally.fail(f"read back {label}: {exc!r}")
                continue
            group.append((time.perf_counter() - start) * 1e3)
            tally.check(checksum == expected[label],
                        f"read back {label}: checksum differs from the run")
        after = util.calibrate()
        raw += group
        scaled += [util.scaled(h, before, after) for h in group]
        before = after
    return raw, scaled


def batch_timed(args, tally, pins) -> dict:
    from repro.exp.cache import ResultCache
    from paper_refs import deviation_pct

    wl = _batch(args)
    setup = timed_setups(args.workload)
    raw, windows, hits, raw_hits = [], [], [], []
    # Pool passes run in worker processes on both cores; in-process
    # passes on this process's core, pinned to the monitor's.
    cpu = None
    if not wl.parallel:
        cpu = util.measuring_cpu()
        os.sched_setaffinity(0, {cpu})
    with util.SpeedMonitor(args.workload, cpu) as monitor:
        started = time.perf_counter()
        while keep_running(started, raw, args.seconds):
            cache = ResultCache(util.work_dir(f"{args.workload}-{len(raw)}"))
            eng0, ff0 = _counters()
            t0 = time.perf_counter()
            with gc_paused():
                results, _elapsed = wl.execute(cache, WORKERS)
            t1 = time.perf_counter()
            raw.append(t1 - t0)
            windows.append((t0, t1))
            eng1, ff1 = _counters()
            tally.ok(len(results))
            _verify_pass(wl, results, tally, pins)
            pins.pin("ff.jumps", ff1["jumps"] - ff0["jumps"])
            if not wl.parallel:  # in-process: engine counts are visible
                pins.pin("engine.events_run",
                         eng1["events_run"] - eng0["events_run"])
            if len(raw) == 1:
                log(f"paper_dev_pct {deviation_pct(wl.paper(results)):.2f}")
            with gc_paused():
                samples, scaled = _read_back(
                    wl, cache, results, range(wl.scale["hits_per_pass"]),
                    tally)
            hits += scaled
            raw_hits += samples
    walls = [monitor.scaled(t0, t1) for t0, t1 in windows]
    log(f"RAW wall_s={median(raw):.4f} hit_p50_ms={median(raw_hits):.4f} "
        f"hit_p90_ms={percentile(raw_hits, 90):.4f}")
    log(f"{len(walls)} passes, raw s: " + ", ".join(f"{w:.3f}" for w in raw)
        + "; scaled s: " + ", ".join(f"{w:.3f}" for w in walls))
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (util.peak_rss_mb(), "MB"),
        "hit_p50_ms": (median(hits), "ms"),
    }


def batch_traced(args, tally, pins) -> dict:
    from paper_refs import deviation_pct

    wl = _batch(args)
    metrics, results, elapsed = traced_passes(
        wl, WORKERS, args, tally, pins, wl.scale["hits_per_pass"])
    metrics["job_p50_s"] = median(elapsed.values())
    metrics["paper_dev_pct"] = deviation_pct(wl.paper(results))
    for label, seconds in elapsed.items():
        if label in EXPERIMENT_NAMES:
            metrics[f"exp.wall_s.{label}"] = seconds
    return _per_layer(metrics)


def traced_passes(wl, workers: int, args, tally, pins, read_backs: int
                  ) -> tuple[dict, dict, dict]:
    """Three passes of ``wl``: the real configuration with spans (the
    exp, dist and cache layers), the serial in-process configuration
    untraced (reference wall time and counts), and the same under spans
    plus cProfile (self time per module, simulation counts).  Returns
    the per-layer metrics, and pass 1's results and per-label times."""
    from bench_layers import Counts, Spans, dist_metrics, install, \
        profile_rollup
    from repro.exp.cache import ResultCache
    from repro.obs.metrics import REGISTRY

    run_id = uuid.uuid4().hex[:12]

    # Pass 1: as timed, with spans.
    spans = Spans(run_id)
    reg0 = util.registry_totals(REGISTRY.snapshot())
    _eng0, ff0 = _counters()
    undo = install(spans, Counts())
    try:
        cache = ResultCache(util.work_dir(f"{args.workload}-trace1"))
        with gc_paused():
            results1, elapsed1 = wl.execute(cache, workers)
        _read_back(wl, cache, results1, range(read_backs), tally)
    finally:
        undo()
    reg = _delta(util.registry_totals(REGISTRY.snapshot()), reg0)
    ff1 = _delta(_counters()[1], ff0)
    tally.ok(len(results1))
    _verify_pass(wl, results1, tally, pins)
    pins.pin("ff.jumps", ff1["jumps"])

    # Pass 2: serial, in-process, untraced.
    eng0, ff0 = _counters()
    t0 = time.perf_counter()
    with gc_paused():
        results2, _ = wl.execute(
            ResultCache(util.work_dir(f"{args.workload}-trace2")), 1)
    wall2 = time.perf_counter() - t0
    eng2, ff2 = _delta(_counters()[0], eng0), _delta(_counters()[1], ff0)
    tally.ok(len(results2))
    _verify_pass(wl, results2, tally, pins)
    pins.pin("ff.jumps", ff2["jumps"])
    pins.pin("engine.events_run", eng2["events_run"])

    # Pass 3: serial, in-process, spans + profiler.
    spans3 = Spans(run_id)
    counts = Counts()
    eng0, ff0 = _counters()
    undo = install(spans3, counts)
    profile = cProfile.Profile()
    try:
        t0 = time.perf_counter()
        with gc_paused():
            profile.enable()
            try:
                results3, _ = wl.execute(
                    ResultCache(util.work_dir(f"{args.workload}-trace3")),
                    1)
            finally:
                profile.disable()
        wall3 = time.perf_counter() - t0
    finally:
        undo()
    eng3, ff3 = _delta(_counters()[0], eng0), _delta(_counters()[1], ff0)
    tally.ok(len(results3))
    _verify_pass(wl, results3, tally, pins)
    pins.pin("ff.jumps", ff3["jumps"])
    pins.pin("engine.events_run", eng3["events_run"])
    pins.pin("defenses.preventive_actions", counts.preventive_actions)

    metrics = _physics_metrics(eng3, ff3, profile_rollup(profile))
    metrics.update({
        "controller.requests": counts.requests,
        "defenses.preventive_actions": counts.preventive_actions,
        "ml.fit_s": spans.total("ml.fit", outermost=True),
        "workloads.trace_gen_s": spans.total("workloads.trace"),
        "scenario.builds": counts.scenario_builds,
        "scenario.build_s": spans3.total("scenario.build"),
        "exp.map_trials_s": spans.total("map_trials", outermost=True),
        "exp.trials": len(spans.named("trial")),
        "exp.cache.get_s": spans.total("cache.get"),
        "exp.cache.put_s": spans.total("cache.put"),
        "exp.cache.hits": reg.get("repro_cache_hits_total", 0.0),
        "exp.cache.misses": reg.get("repro_cache_misses_total", 0.0),
        "exp.cache.put_bytes": reg.get("repro_cache_put_bytes_total", 0.0),
        "dist.requeues": reg.get("repro_dist_requeues_total", 0.0),
        "dist.crashes": reg.get("repro_dist_crashes_total", 0.0),
        "dist.timeouts": reg.get("repro_dist_timeouts_total", 0.0),
        "trace_overhead_pct": 100.0 * (wall3 - wall2) / wall2,
    })
    metrics.update(dist_metrics(spans))
    stem = f"spans-{args.workload}-{args.seed}"
    spans.dump(util.WORK / f"{stem}.json")
    spans3.dump(util.WORK / f"{stem}-serial.json")
    log(f"spans written to {util.WORK / stem}*.json")
    return metrics, results1, elapsed1


def _physics_metrics(eng: dict, ff: dict, rollup: dict) -> dict:
    from bench_layers import SELF_TIME_LAYERS

    self_s = rollup["self_s"]
    considered = rollup["calls"].get("ff.fastforward.consider", 0)
    metrics = {f"{layer}.self_s": self_s.get(layer, 0.0)
               for layer in SELF_TIME_LAYERS}
    events = eng.get("events_run", 0)
    metrics.update({
        "engine.events_run": events,
        "engine.events_elided": eng.get("events_elided", 0),
        "engine.ns_per_event": (1e9 * self_s.get("engine", 0.0) / events
                                if events else 0.0),
        "ff.jumps": ff.get("jumps", 0),
        "ff.joint_jumps": ff.get("joint_jumps", 0),
        "ff.cycles": ff.get("cycles", 0),
        "ff.jump_yield": ff.get("jumps", 0) / considered if considered
        else 0.0,
    })
    return metrics


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _serve_workload(args):
    from bench_serve import SCALES, ServeMixed

    return ServeMixed(args.seed, SCALES[args.scale])


def serve_timed(args, tally, pins) -> dict:
    import bench_serve as sv

    wl = _serve_workload(args)
    # Set-ups and the server run on one core beside its monitor; the
    # load generator (this process) on the other cores.
    cpu = util.measuring_cpu()
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        os.sched_setaffinity(0, others)
    setups, makespans, windows, server, hits = [], [], [], None, None
    with util.SpeedMonitor(args.workload, cpu) as monitor:
        try:
            for k in range(SETUP_SAMPLES["serve-mixed"]):
                t0 = time.perf_counter()
                server, cache_dir, primed = sv.start(wl, f"setup{k}",
                                                     cpu=cpu)
                setups.append((t0, time.perf_counter()))
                if k + 1 < SETUP_SAMPLES["serve-mixed"]:
                    server.stop()
                    server = None
            for name, checksum in primed["checksums"].items():
                pins.pin(f"checksum.hit.{name}", checksum)
            keep = sv.primed_keys(wl)
            hits = sv.HitLoop(server, wl.hits, primed["checksums"],
                              wl.scale["rate"])
            started = time.perf_counter()
            hits.start()
            while keep_running(started, makespans, args.seconds):
                if makespans:
                    sv.drop_results(cache_dir, keep)
                t0 = time.perf_counter()
                makespans.append(
                    sv.run_jobs(wl, server, tally, pins)["makespan_s"])
                windows.append((t0, time.perf_counter()))
        finally:
            if hits is not None:
                sv.finish_hits(hits, tally)
            if server is not None:
                server.stop()
    setup = [monitor.scaled(start, end) for start, end in setups]
    # Makespans are on the server's clock: scaled by the speed over the
    # window the benchmark waited for them.
    walls = [span * monitor.factor(start, end)
             for span, (start, end) in zip(makespans, windows)]
    latency = sv.while_busy(hits, windows)
    log("set-up samples, raw s: "
        + ", ".join(f"{end - start:.3f}" for start, end in setups))
    log(f"{len(walls)} passes, {len(latency)} of {len(hits.latency_ms)} "
        f"hits sent while jobs ran (p90 {percentile(latency, 90):.2f} ms); "
        "makespans, raw s: " + ", ".join(f"{w:.3f}" for w in makespans)
        + "; scaled s: " + ", ".join(f"{w:.3f}" for w in walls))
    sv.flag_if_behind(hits.late_ms, wl.scale["rate"])
    return {
        "setup_s": (median(setup), "s"),
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (util.peak_rss_mb(), "MB"),
        "hit_p50_ms": (median(latency), "ms"),
    }


def serve_traced(args, tally, pins) -> dict:
    """One pass against a plain server, one against a server whose main
    thread (event loop, request handling) runs under cProfile, with
    client-side spans; then the pass's jobs replayed in-process through
    :func:`traced_passes` for the physics layers.  Server and replay
    must agree on every checksum and simulation count."""
    import bench_serve as sv
    from bench_batch import Experiments
    from bench_layers import Spans, profile_rollup
    from paper_refs import deviation_pct

    wl = _serve_workload(args)
    spans = Spans(uuid.uuid4().hex[:12])
    profile_path = util.WORK / f"serve-{args.seed}.prof"
    runs = {}
    for tag in ("plain", "profiled"):
        server = hits = None
        traced = tag == "profiled"
        try:
            server, _cache_dir, primed = sv.start(
                wl, tag, profile_path if traced else None)
            for name, checksum in primed["checksums"].items():
                pins.pin(f"checksum.hit.{name}", checksum)
            hits = sv.HitLoop(server, wl.hits, primed["checksums"],
                              wl.scale["rate"], spans if traced else None)
            hits.start()
            one = sv.run_jobs(wl, server, tally, pins,
                              spans if traced else None)
            sv.finish_hits(hits, tally)
            one["late_ms"] = hits.late_ms
            hits = None
            one["registry"], one["request_p50_ms"] = sv.scrape(server)
        finally:
            if hits is not None:
                sv.finish_hits(hits, tally)
            if server is not None:
                server.stop()
        for key in ("repro_engine_events_run_total", "repro_ff_jumps_total"):
            pins.pin(f"server.{key}", one["registry"].get(key, 0.0))
        runs[tag] = one

    replay = Experiments(args.seed, wl.scale)
    replay.plan = {f"miss{i}.{name}": (name, params, None)
                   for i, (name, params) in enumerate(wl.misses)}
    metrics, _results, _elapsed = traced_passes(replay, 1, args, tally,
                                                pins, 0)
    plain = runs["plain"]
    reg = plain["registry"]
    tally.check(
        reg.get("repro_engine_events_run_total") == metrics[
            "engine.events_run"]
        and reg.get("repro_ff_jumps_total") == metrics["ff.jumps"],
        "server-side simulation counts differ from the in-process replay")
    cum = profile_rollup(str(profile_path))["cum_s"]
    jobs = sv.job_stats([plain])
    metrics.update({
        "exp.trials": jobs["trials"],
        "exp.cache.get_s": cum.get("exp.cache.get", 0.0),
        "exp.cache.put_s": cum.get("exp.cache.put", 0.0),
        "exp.cache.hits": reg.get("repro_cache_hits_total", 0.0),
        "exp.cache.misses": reg.get("repro_cache_misses_total", 0.0),
        "exp.cache.put_bytes": reg.get("repro_cache_put_bytes_total", 0.0),
        "serve.requests": reg.get("repro_serve_requests_total", 0.0),
        "serve.request_p50_ms": plain["request_p50_ms"],
        "serve.jobs_submitted": len(plain["jobs"]),
        "serve.job_wait_s": jobs["job_wait_s"],
        "serve.job_run_s": jobs["job_run_s"],
        "serve.queue_depth_max": jobs["queue_depth_max"],
        "loadgen.late_p99_ms": percentile(plain["late_ms"], 99),
        "job_p50_s": jobs["job_p50_s"],
        "paper_dev_pct": deviation_pct(primed["paper"]),
    })
    for name, seconds in jobs["wall_by_name"].items():
        if name in EXPERIMENT_NAMES:
            metrics[f"exp.wall_s.{name}"] = seconds
    sv.flag_if_behind(plain["late_ms"], wl.scale["rate"])
    spans.dump(util.WORK / f"spans-{args.workload}-{args.seed}-http.json")
    return _per_layer(metrics)


# ----------------------------------------------------------------------
def per_layer_units() -> dict[str, str]:
    doc = json.loads((util.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def _per_layer(values: dict) -> dict:
    """Every declared per-layer metric, 0 where this workload does not
    exercise the layer."""
    units = per_layer_units()
    unknown = set(values) - set(units) - {"failed_frac"}
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
