"""Per-layer instrumentation, all of it in the benchmark's own files.

* :class:`Spans` records a span (name, start, end, parent, run id)
  around public calls into each layer.  :func:`install` wraps those
  calls in place and returns an undo function; nothing under ``src/``
  is edited.
* :func:`profile_rollup` rolls a ``cProfile`` run up into self time
  per ``repro.<module>`` -- the physics packages have no coarse public
  boundary, so a deterministic profiler is the only way to split their
  time without touching the program.

Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import pstats
import sys
import threading
import time
from pathlib import Path

from bench_util import SRC, median, percentile

#: Self-time rollup keys, by path below ``src/repro``.  A file not
#: listed here rolls up into its top-level package.
_MODULE_FILES = {
    ("sim", "engine.py"): "engine",
    ("sim", "fastforward.py"): "ff",
    ("sim", "stats.py"): "stats",
}
#: Layers whose profiled self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("engine", "ff", "stats", "controller", "dram",
                    "defenses", "cpu", "core", "obs")


class Spans:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> dict:
        stack = self._stack()
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": stack[-1]["id"] if stack else None,
               "run": self.run_id, **attrs}
        with self._lock:
            rec["id"] = len(self.records)
            self.records.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is rec:
            stack.pop()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a finished span measured elsewhere (a pool child)."""
        stack = self._stack()
        with self._lock:
            self.records.append({
                "id": len(self.records), "name": name, "start": start,
                "end": end, "parent": stack[-1]["id"] if stack else None,
                "run": self.run_id, **attrs})

    def wrap(self, name: str, fn, on_exit=None):
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = spans.open(name)
            try:
                out = fn(*args, **kwargs)
                if on_exit is not None:
                    on_exit(rec, args, kwargs, out)
                return out
            finally:
                spans.close(rec)

        return wrapper

    # ------------------------------------------------------------------
    def named(self, name: str) -> list[dict]:
        return [r for r in self.records
                if r["name"] == name and r["end"] is not None]

    def total(self, name: str, outermost: bool = False) -> float:
        """Summed duration of ``name`` spans; with ``outermost``, spans
        nested inside another span of the same name are skipped (a
        forest's ``fit`` calls its trees' ``fit``)."""
        by_id = {r["id"]: r for r in self.records}
        total = 0.0
        for rec in self.named(name):
            if outermost and _has_ancestor(rec, name, by_id):
                continue
            total += rec["end"] - rec["start"]
        return total

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.named(name)]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id,
                                    "spans": self.records}))


def _has_ancestor(rec: dict, name: str, by_id: dict) -> bool:
    parent = rec.get("parent")
    while parent is not None:
        up = by_id[parent]
        if up["name"] == name:
            return True
        parent = up.get("parent")
    return False


# ----------------------------------------------------------------------
# Trial timing across the process boundary
# ----------------------------------------------------------------------
def _timed_trial(fn, point, seed=None):
    """Run one trial and return it with its start/end clock readings.

    Module-level so the pool can pickle it by reference; the clock is
    ``perf_counter`` (CLOCK_MONOTONIC, shared by every process on the
    host), so child spans line up with the parent's.
    """
    start = time.perf_counter()
    value = fn(point) if seed is None else fn(point, seed)
    return value, start, time.perf_counter(), os.getpid()


class _BackendProxy:
    """Wraps one execution backend: a span per ``run`` call and a
    ``trial`` span per trial, wherever the trial executed."""

    def __init__(self, inner, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def run(self, fn, points, seeds, *, workers=None, on_result=None):
        spans = self._spans
        landed: set[int] = set()
        name = getattr(self._inner, "name", "?")
        lanes = 1 if name == "serial" else max(1, workers or 1)

        def record(j: int, packed) -> object:
            value, start, end, pid = packed
            if j not in landed:
                landed.add(j)
                spans.add("trial", start, end, pid=pid)
            return value

        def relay(j: int, packed) -> None:
            value = record(j, packed)
            if on_result is not None:
                on_result(j, value)

        rec = spans.open("backend.run", backend=name, lanes=lanes,
                         tasks=len(points))
        try:
            out = self._inner.run(functools.partial(_timed_trial, fn),
                                  points, seeds, workers=workers,
                                  on_result=relay)
        finally:
            spans.close(rec)
        return [record(j, packed) for j, packed in enumerate(out)]


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``replacement`` (drivers import sweep helpers by name)."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Counts:
    """Simulation counts read off public results while spans are on."""

    def __init__(self) -> None:
        self.scenario_builds = 0
        self.requests = 0
        self.preventive_actions = 0


def install(spans: Spans, counts: Counts):
    """Wrap the public layer boundaries; returns the undo function."""
    import repro.ml as ml
    from repro.core.fingerprint import WebsiteFingerprinter
    from repro.exp import runner
    from repro.exp.cache import ResultCache
    from repro.scenario.build import BuiltScenario
    from repro.scenario.spec import ScenarioSpec
    from repro.exp.registry import all_experiments
    from repro.workloads.websites import WebsiteProfile

    all_experiments()  # import the drivers before rebinding their names
    undo: list[tuple[object, str, object]] = []
    rebound: list[tuple[object, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def on_put(rec, args, kwargs, out) -> None:
        try:
            rec["bytes"] = out.stat().st_size
        except OSError:
            rec["bytes"] = 0

    def on_build(rec, args, kwargs, out) -> None:
        counts.scenario_builds += 1

    def on_scenario_run(rec, args, kwargs, out) -> None:
        counters = getattr(out, "counters", {}) or {}
        counts.requests += int(counters.get("requests", 0))
        counts.preventive_actions += (int(counters.get("backoffs", 0))
                                      + int(counters.get("rfm_commands", 0)))

    def get_backend(name):
        return _BackendProxy(original_get_backend(name), spans)

    def run_experiment(name, *args, **kwargs):
        rec = spans.open("run_experiment", experiment=name)
        try:
            run = original_run_experiment(name, *args, **kwargs)
            rec["cached"] = run.cached
            rec["trials"] = run.trials
            return run
        finally:
            spans.close(rec)

    original_get_backend = runner.get_backend
    original_run_experiment = runner.run_experiment
    for original, replacement in (
            (runner.get_backend, get_backend),
            (runner.run_experiment, run_experiment),
            (runner.map_trials, spans.wrap("map_trials",
                                           runner.map_trials))):
        _rebind(original, replacement)
        rebound.append((original, replacement))
    patch(ResultCache, "get", spans.wrap("cache.get", ResultCache.get))
    patch(ResultCache, "put", spans.wrap("cache.put", ResultCache.put,
                                         on_put))
    patch(ScenarioSpec, "build", spans.wrap("scenario.build",
                                            ScenarioSpec.build, on_build))
    patch(BuiltScenario, "run", spans.wrap("scenario.run",
                                           BuiltScenario.run,
                                           on_scenario_run))
    patch(WebsiteFingerprinter, "collect_dataset",
          spans.wrap("collect_dataset",
                     WebsiteFingerprinter.collect_dataset))
    patch(WebsiteProfile, "trace",
          spans.wrap("workloads.trace", WebsiteProfile.trace))
    for cls_name in ml.__all__:
        cls = getattr(ml, cls_name)
        if isinstance(cls, type) and hasattr(cls, "fit"):
            patch(cls, "fit", spans.wrap("ml.fit", cls.fit))
            if hasattr(cls, "predict"):
                patch(cls, "predict", spans.wrap("ml.predict", cls.predict))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        # Also catches modules imported while the wrappers were bound.
        for original, replacement in rebound:
            _rebind(replacement, original)

    return uninstall


# ----------------------------------------------------------------------
# Rollups
# ----------------------------------------------------------------------
def _module_of(filename: str) -> str | None:
    try:
        rel = Path(filename).resolve().relative_to(SRC / "repro")
    except ValueError:
        return None
    parts = rel.parts
    if parts[:2] in _MODULE_FILES:
        return _MODULE_FILES[parts[:2]]
    return parts[0] if len(parts) > 1 else Path(parts[0]).stem


def profile_rollup(profile) -> dict:
    """Self seconds per ``repro`` module, plus the call counts and
    cumulative times the per-layer metrics need."""
    stats = pstats.Stats(profile).stats
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    cum: dict[str, float] = {}
    for (filename, _line, func), (_cc, ncalls, tottime, cumtime,
                                  _callers) in stats.items():
        module = _module_of(filename)
        if module is None:
            continue
        self_s[module] = self_s.get(module, 0.0) + tottime
        key = f"{module}.{Path(filename).stem}.{func}"
        calls[key] = calls.get(key, 0) + ncalls
        cum[key] = max(cum.get(key, 0.0), cumtime)
    return {"self_s": self_s, "calls": calls, "cum_s": cum}


def dist_metrics(spans: Spans) -> dict:
    """dist.* from the backend and trial spans of the real config."""
    runs = spans.named("backend.run")
    trials = spans.durations("trial")
    capacity = sum((r["end"] - r["start"]) * r["lanes"] for r in runs)
    return {
        "dist.tasks_dispatched": float(sum(r["tasks"] for r in runs)),
        "dist.trial_p50_s": median(trials),
        "dist.trial_p90_s": percentile(trials, 90),
        "dist.busy_frac": sum(trials) / capacity if capacity else 0.0,
    }
