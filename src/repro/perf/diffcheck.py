"""Differential equivalence harness: fast-forward on vs. off.

The steady-state fast-forward engine (:mod:`repro.sim.fastforward`)
promises *bit-identical* simulation results.  This module machine-
checks that promise instead of trusting the argument:

* every **registered experiment** runs twice -- fast-forward forced
  off, then forced on -- at reduced-but-faithful scales, and the
  canonicalized result values must be equal;
* every **scenario spec** (the registered presets' cousins, plus
  seeded random specs from :mod:`repro.scenario.fuzz`) runs twice with
  a *deep* capture -- the serializable result core, every blocking
  interval, every ground-truth counter, and a per-agent sample
  checksum -- and the captures must be equal.

A scenario mismatch is **shrunk** to a minimal failing spec (dropping
agents, halving scales, stripping measurements while the mismatch
persists) and written as a JSON artifact next to the report, so a
failure lands as a reproducible test case, not a shrug.

CLI: ``python -m repro diffcheck [--all | NAME...] [--fuzz N]``.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.sim import fastforward

#: Reduced-but-faithful parameter points for the experiment sweep.
#: Scales are chosen so the full 21-experiment double sweep stays
#: interactive; every driver still exercises its real machinery
#: (channels, sweeps, classifiers, defenses).
EXPERIMENT_PARAMS: dict[str, dict] = {
    "fig2": {"n_samples": 300, "nbo": 64},
    "fig3": {"text": "MI", "pattern_bits": 8},
    "fig4": {"intensities": [1, 50], "n_bits": 4},
    "fig5": {"n_bits": 4},
    "sec63": {"n_symbols": 4, "noise_intensity": 1.0},
    "fig11": {"intensities": [1, 50], "n_bits": 4},
    "fig12": {"latencies_ns": [0, 96], "n_bits": 4},
    "fig6": {"text": "MI", "pattern_bits": 8},
    "fig7": {"intensities": [1, 50], "n_bits": 4},
    "fig8": {"n_bits": 4},
    "fig9": {"n_sites": 2, "traces_per_site": 1},
    "fig10": {"n_sites": 3, "traces_per_site": 4, "n_splits": 2},
    "sec103": {"n_bits": 4, "n_sites": 2, "traces_per_site": 2},
    "sec91": {"secrets": [20, 90]},
    "table3": {},
    "sec114": {"n_bits": 4, "noise_intensity": 30.0},
    "fig13": {"nrh_values": [1024, 128], "n_mixes": 1,
              "n_requests": 2000},
    "sec12": {"n_bits": 4, "para_probability": 0.005},
    "ablation-refresh": {"n_samples": 300},
    "ablation-trecv": {"trecv_values": [3], "n_bits": 4},
    "ablation-window": {"windows_us": [25], "n_bits": 4},
}

#: The quick smoke subset (CI): cheap but covering a plain probe, a
#: full covert transmission, and the counter-leak protocol.
QUICK_EXPERIMENTS = ("fig2", "fig3", "sec91")


@dataclass
class DiffOutcome:
    """One name's off-vs-on comparison."""

    name: str
    kind: str  #: "experiment" | "scenario"
    identical: bool
    detail: str = ""  #: first-mismatch path, empty when identical
    #: Fast-forward engagement during the "on" run (process deltas).
    jumps: int = 0
    cycles: int = 0
    snapshots: int = 0
    #: Path of the shrunken failing-spec artifact (scenario mismatches).
    artifact: str | None = None

    @property
    def snapshots_per_jump(self) -> str:
        """Detection cost per jump taken (deterministic, unlike a
        wall-clock ratio); ``-`` when nothing jumped."""
        if not self.jumps:
            return "-"
        return f"{self.snapshots / self.jumps:.1f}"


@dataclass
class DiffReport:
    """Outcome of one diffcheck sweep."""

    outcomes: list[DiffOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.identical for o in self.outcomes)

    @property
    def mismatches(self) -> list[DiffOutcome]:
        return [o for o in self.outcomes if not o.identical]

    def to_text(self) -> str:
        lines = [f"{'name':24s} {'kind':10s} {'identical':9s} "
                 f"{'jumps':>8s} {'snapshots/jump':>15s}"]
        lines.append("-" * 70)
        for o in self.outcomes:
            lines.append(
                f"{o.name:24s} {o.kind:10s} "
                f"{'yes' if o.identical else 'NO':9s} "
                f"{o.jumps:8d} {o.snapshots_per_jump:>15s}")
            if not o.identical:
                lines.append(f"    first mismatch: {o.detail}")
                if o.artifact:
                    lines.append(f"    shrunken spec:  {o.artifact}")
        n = len(self.outcomes)
        bad = len(self.mismatches)
        jumps = sum(o.jumps for o in self.outcomes)
        lines.append("-" * 70)
        lines.append(
            f"{n} case(s), {n - bad} identical, {bad} mismatched; "
            f"{jumps} fast-forward jump(s) exercised")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Deep scenario capture
# ----------------------------------------------------------------------
def _sample_digest(samples) -> list:
    """Order-sensitive checksum of a probe's full sample log."""
    crc = 0
    for s in samples:
        crc = zlib.crc32(b"%d,%d,%d;" % (s.end_time, s.delta, s.addr),
                         crc)
    return [len(samples), crc]


def deep_scenario_run(spec) -> dict:
    """Run a spec and capture everything the physics determines:
    the serializable result core plus ground truth that specs do not
    necessarily measure (blocks, all counters, agent completion times,
    per-agent sample checksums)."""
    built = spec.build()
    result = built.run()
    doc = result.to_dict()
    stats = built.system.stats
    agents = {}
    for agent in built.agents:
        entry = {"done": agent.done, "finish_time": agent.finish_time}
        samples = getattr(agent, "samples", None)
        if samples is not None:
            entry["samples"] = _sample_digest(samples)
        agents[agent.name] = entry
    doc["ground_truth"] = {
        "final_now": built.system.sim.now,
        "counters": dict(stats.act_rate_summary),
        "precharges": stats.precharges,
        "para_refreshes": stats.para_refreshes,
        "blocks": [
            [b.kind.value, b.start, b.end, b.rank,
             sorted(b.banks) if b.banks is not None else None]
            for b in stats.blocks],
        "agents": agents,
    }
    return doc


def first_diff(a, b, path: str = "$") -> str | None:
    """Human-readable path of the first difference between two JSON-ish
    values (``None`` when equal)."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        # Callers pass (fast, base): a missing key in ``a`` exists only
        # in the baseline capture, and vice versa.
        for key in sorted(set(a) | set(b), key=str):
            if key not in a:
                return f"{path}.{key}: only in baseline run"
            if key not in b:
                return f"{path}.{key}: only in fast-forward run"
            sub = first_diff(a[key], b[key], f"{path}.{key}")
            if sub:
                return sub
        return None
    if isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            sub = first_diff(x, y, f"{path}[{i}]")
            if sub:
                return sub
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def _engagement(before: dict, after: dict) -> dict:
    """DiffOutcome engagement fields from two fastforward.totals()."""
    return {key: after[key] - before[key]
            for key in ("jumps", "cycles", "snapshots")}


def diff_scenario(spec, *, artifact_dir: str | None = None,
                  shrink: bool = True) -> DiffOutcome:
    """Run one spec through both engines and compare the deep capture."""
    with fastforward.forced("off"):
        base = deep_scenario_run(spec)
    before = fastforward.totals()
    with fastforward.forced("on"):
        fast = deep_scenario_run(spec)
    after = fastforward.totals()
    detail = first_diff(fast, base) or ""
    outcome = DiffOutcome(
        name=spec.name, kind="scenario", identical=not detail,
        detail=detail, **_engagement(before, after))
    if detail and shrink:
        minimal = shrink_spec(spec)
        outcome.artifact = write_artifact(minimal, outcome,
                                          artifact_dir)
    return outcome


def diff_experiment(name: str, params: dict | None = None) -> DiffOutcome:
    """Run one registered experiment through both engines (cache
    bypassed, serial) and compare the canonicalized result values."""
    from repro.exp.cache import canonicalize
    from repro.exp.runner import run_experiment

    params = EXPERIMENT_PARAMS.get(name, {}) if params is None else params

    def run():
        value = run_experiment(name, dict(params), use_cache=False).value
        return canonicalize(value)

    with fastforward.forced("off"):
        base = run()
    before = fastforward.totals()
    with fastforward.forced("on"):
        fast = run()
    after = fastforward.totals()
    detail = first_diff(fast, base) or ""
    return DiffOutcome(
        name=name, kind="experiment", identical=not detail,
        detail=detail, **_engagement(before, after))


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _mismatches(spec) -> bool:
    with fastforward.forced("off"):
        base = deep_scenario_run(spec)
    with fastforward.forced("on"):
        fast = deep_scenario_run(spec)
    return first_diff(fast, base) is not None


def _shrink_candidates(spec):
    """Strictly-smaller variants of a spec, most aggressive first."""
    # Drop one agent at a time (never the last one).
    if len(spec.agents) > 1:
        for i in range(len(spec.agents)):
            agents = spec.agents[:i] + spec.agents[i + 1:]
            yield spec.with_(agents=agents)
    # Halve bounded scales.
    for i, agent in enumerate(spec.agents):
        for key in ("max_samples", "n_requests"):
            value = agent.params.get(key)
            if isinstance(value, int) and value > 8:
                params = dict(agent.params)
                params[key] = value // 2
                agents = list(spec.agents)
                agents[i] = _with_params(agent, params)
                yield spec.with_(agents=tuple(agents))
    # Strip measurements down to the ground truth (kept by deep_run).
    if spec.measurements:
        yield spec.with_(measurements=())


def _with_params(agent, params):
    from repro.scenario.spec import AgentSpec

    return AgentSpec(kind=agent.kind, name=agent.name, stage=agent.stage,
                     params=params)


def shrink_spec(spec, *, max_steps: int = 40):
    """Greedy shrink: keep applying the first still-failing candidate
    until none fails (or the step budget runs out)."""
    current = spec
    for _ in range(max_steps):
        for candidate in _shrink_candidates(current):
            try:
                failing = _mismatches(candidate)
            except Exception:  # noqa: BLE001 - a shrunk spec may be sick
                continue
            if failing:
                current = candidate
                break
        else:
            break
    return current


def write_artifact(spec, outcome: DiffOutcome,
                   artifact_dir: str | None) -> str:
    """Persist a failing (shrunken) spec + mismatch detail as JSON."""
    directory = Path(artifact_dir) if artifact_dir else Path.cwd()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"diffcheck-failure-{spec.name}.json"
    with open(path, "w") as handle:
        json.dump({
            "scenario": spec.to_dict(),
            "first_mismatch": outcome.detail,
            "note": "minimal spec whose results differ between "
                    "fast-forward off and on; rerun with "
                    "`python -m repro diffcheck --spec " + path.name
                    + "`",
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return str(path)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def run_diffcheck(*, experiments: list[str] | None = None,
                  fuzz: int = 0, fuzz_seed: int = 0x5EED,
                  fuzz_multi: int = 0, fuzz_multi_seed: int = 0xA117,
                  spec_files: list[str] | None = None,
                  artifact_dir: str | None = None,
                  backend: str | None = None,
                  log=lambda msg: None) -> DiffReport:
    """The full sweep: named experiments + fuzzed scenario specs (the
    adversarial single-probe profile plus ``fuzz_multi`` multi-agent
    periodic casts) + explicit spec files.

    ``backend`` selects the sweep-execution backend the *experiment*
    runs fan out over (see :mod:`repro.dist`) — the equivalence check
    must hold under every backend, and the worker protocol ships the
    fast-forward forced mode with each task so remote trials stay
    pinned exactly like local ones.  Scenario cases always run
    in-process (their deep ground-truth capture reads live simulator
    state).
    """
    from repro.dist import check_backend_name, execution
    from repro.scenario.fuzz import random_multiagent_spec, random_spec
    from repro.scenario.spec import ScenarioSpec

    if backend is not None:
        check_backend_name(backend)
    report = DiffReport()
    with execution(backend=backend):
        for name in experiments or ():
            log(f"experiment {name} ...")
            report.outcomes.append(diff_experiment(name))
    for i in range(fuzz):  # in-process: deep capture reads live state
        spec = random_spec(fuzz_seed + i)
        log(f"scenario {spec.name} ...")
        report.outcomes.append(
            diff_scenario(spec, artifact_dir=artifact_dir))
    for i in range(fuzz_multi):
        spec = random_multiagent_spec(fuzz_multi_seed + i)
        log(f"scenario {spec.name} ...")
        report.outcomes.append(
            diff_scenario(spec, artifact_dir=artifact_dir))
    for path in spec_files or ():
        with open(path) as handle:
            data = json.load(handle)
        spec = ScenarioSpec.from_dict(data.get("scenario", data))
        log(f"scenario {spec.name} (from {path}) ...")
        report.outcomes.append(
            diff_scenario(spec, artifact_dir=artifact_dir))
    return report
