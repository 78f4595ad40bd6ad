"""The three batch workloads: covert-sweep, countermeasure-perf and
fingerprint.

Each one turns ``--seed`` into inputs, runs one *pass* of work through
the program's public entry points, reads the results back through the
result cache (the cached-hit latency the end-to-end metrics report),
and says which paper values its results reproduce.  The seed reaches
the program only as those inputs.
"""

from __future__ import annotations

import random
import string
import time

from paper_refs import table_value

#: Work sizes.  ``full`` is what the benchmark measures; ``tiny`` is the
#: self-test scale (seconds per workload, same code paths).
SCALES = {
    "full": {
        "covert_bits": 4, "covert_text_len": 2, "pattern_bits": 8,
        "fig13": {"nrh_values": [1024, 256, 64], "n_mixes": 2,
                  "n_requests": 500},
        "fp_catalogs": 2, "fp_sites": 8, "fp_traces": 3,
        "fp_duration_us": 60, "fp_splits": 3,
        "hits_per_pass": 300,
    },
    "tiny": {
        "covert_bits": 4, "covert_text_len": 1, "pattern_bits": 4,
        "fig13": {"nrh_values": [1024], "n_mixes": 1, "n_requests": 150},
        "fp_catalogs": 2, "fp_sites": 3, "fp_traces": 3,
        "fp_duration_us": 30, "fp_splits": 3,
        "hits_per_pass": 20,
    },
}


def seeded(workload: str, seed: int) -> random.Random:
    """The workload's input generator (string seeding is stable across
    processes and Python versions)."""
    return random.Random(f"{workload}:{seed}")


class Experiments:
    """A list of registry experiments run through ``run_experiment``
    against one result cache; reading back is a second, cached call."""

    name = ""
    #: Trials fan out over the worker pool (both cores busy).
    parallel = True

    def __init__(self, seed: int, scale: dict) -> None:
        self.seed = seed
        self.scale = scale
        #: label -> (experiment name, params, seed or None)
        self.plan: dict[str, tuple[str, dict, int | None]] = {}

    def execute(self, cache, workers: int) -> tuple[dict, dict]:
        from repro.exp import runner

        results, elapsed = {}, {}
        for label, (name, params, seed) in self.plan.items():
            start = time.perf_counter()
            run = runner.run_experiment(name, params, workers=workers,
                                        seed=seed, cache=cache)
            elapsed[label] = time.perf_counter() - start
            results[label] = run.value
        return results, elapsed

    def read_back(self, cache, label: str, workers: int):
        from repro.exp import runner

        name, params, seed = self.plan[label]
        run = runner.run_experiment(name, params, workers=workers,
                                    seed=seed, cache=cache)
        if not run.cached:
            raise RuntimeError(f"{label}: expected a cache hit")
        return run.value

    def check(self, results: dict, tally) -> None:
        """The registry's own quick-report checks, where one exists."""
        from repro.exp.registry import get_experiment

        for label, (name, _params, _seed) in self.plan.items():
            check = get_experiment(name).check
            if check is not None:
                ok, _text = check(results[label])
                tally.check(ok, f"{label}: registry check failed")


class CovertSweep(Experiments):
    """Both covert channels: message decode (fig3/fig6), noise sweeps
    (fig4/fig7), co-running applications (fig5/fig8) and the
    preventive-action latency sweep (fig12).  The seed draws the message
    text and the noise/latency points; the 1% noise point is always in,
    because that is where the paper reports capacity."""

    name = "covert-sweep"

    def __init__(self, seed: int, scale: dict) -> None:
        super().__init__(seed, scale)
        rng = seeded(self.name, seed)
        n_bits = scale["covert_bits"]

        def text() -> str:
            return "".join(rng.choice(string.ascii_uppercase)
                           for _ in range(scale["covert_text_len"]))

        def noise_points() -> list[int]:
            return [1, rng.randint(20, 45), rng.randint(55, 85)]

        self.plan = {
            "fig3": ("fig3", {"text": text(),
                              "pattern_bits": scale["pattern_bits"]}, None),
            "fig6": ("fig6", {"text": text(),
                              "pattern_bits": scale["pattern_bits"]}, None),
            "fig4": ("fig4", {"intensities": noise_points(),
                              "n_bits": n_bits}, None),
            "fig7": ("fig7", {"intensities": noise_points(),
                              "n_bits": n_bits}, None),
            "fig5": ("fig5", {"n_bits": n_bits}, None),
            "fig8": ("fig8", {"n_bits": n_bits}, None),
            "fig12": ("fig12", {"latencies_ns": [0, rng.randint(5, 45), 96],
                                "n_bits": n_bits}, None),
        }

    def paper(self, results: dict) -> dict[str, float]:
        return {
            "fig3.raw_kbps":
                results["fig3"]["rates"]["raw_bit_rate_bps"] / 1e3,
            "fig6.raw_kbps":
                results["fig6"]["rates"]["raw_bit_rate_bps"] / 1e3,
            "fig4.capacity_kbps_at_1pct": table_value(
                results["fig4"], "noise intensity (%)", 1,
                "capacity (Kbps)"),
            "fig7.capacity_kbps_at_1pct": table_value(
                results["fig7"], "noise intensity (%)", 1,
                "capacity (Kbps)"),
        }


class CountermeasurePerf(Experiments):
    """Fig. 13 at reduced scale: every mechanism at three RowHammer
    thresholds over two workload mixes.  The seed is the experiment's
    own seed, which draws the mixes' address streams."""

    name = "countermeasure-perf"

    def __init__(self, seed: int, scale: dict) -> None:
        super().__init__(seed, scale)
        self.plan = {"fig13": ("fig13", dict(scale["fig13"]), seed)}

    def paper(self, results: dict) -> dict[str, float]:
        return {"fig13.frrfm_ws_at_1024": table_value(
            results["fig13"]["table"], "N_RH", 1024, "FR-RFM")}


class Fingerprint:
    """The Fig. 10 / Table 2 side-channel pipeline, called through its
    public functions, once per seeded site catalog: capture a dataset,
    train the paper's model zoo, cross-validate the decision tree.  Each
    pipeline's output is stored in the result cache, as
    ``run_experiment`` does for fig10, and read back from it.

    A pass runs ``fp_catalogs`` catalogs of short traces rather than one
    of long traces: what a pass costs depends on the sites a catalog
    draws, and averaging over two draws cuts that seed-to-seed spread
    (in profiled call counts over 12 seeds) from 14% to 3% at the same
    cost.  The first catalog is ``WebsiteCatalog(n, seed=<seed>)``."""

    name = "fingerprint"
    parallel = False

    def __init__(self, seed: int, scale: dict) -> None:
        self.seed = seed
        self.scale = scale
        rng = seeded(self.name, seed)
        seeds = [seed] + [rng.randrange(1 << 30)
                          for _ in range(scale["fp_catalogs"] - 1)]
        #: label -> the parameters of that catalog's pipeline
        self.plan = {
            f"fig10.{i}": {"catalog_seed": catalog_seed,
                           "n_sites": scale["fp_sites"],
                           "traces_per_site": scale["fp_traces"],
                           "duration_us": scale["fp_duration_us"],
                           "n_splits": scale["fp_splits"]}
            for i, catalog_seed in enumerate(seeds)}

    def _key(self, label: str) -> str:
        from repro.exp.cache import code_fingerprint, stable_key

        return stable_key({"benchmark": self.name,
                           "params": self.plan[label],
                           "code": code_fingerprint()})

    def execute(self, cache, workers: int) -> tuple[dict, dict]:
        results, elapsed = {}, {}
        for label in self.plan:
            start = time.perf_counter()
            results[label] = self._pipeline(self.plan[label])
            cache.put(self._key(label), results[label])
            elapsed[label] = time.perf_counter() - start
        return results, elapsed

    @staticmethod
    def _pipeline(p: dict) -> dict:
        from repro.core.fingerprint import (
            FingerprintConfig,
            WebsiteFingerprinter,
        )
        from repro.ml import cross_validate, paper_model_zoo, \
            train_test_split
        from repro.ml.metrics import accuracy_score
        from repro.ml.tree import DecisionTreeClassifier
        from repro.sim.engine import US
        from repro.workloads.websites import WebsiteCatalog

        fingerprinter = WebsiteFingerprinter(
            FingerprintConfig(duration_ps=p["duration_us"] * US))
        X, y, names = fingerprinter.collect_dataset(
            WebsiteCatalog(p["n_sites"], seed=p["catalog_seed"]),
            p["traces_per_site"])
        Xtr, Xte, ytr, yte = train_test_split(X, y, test_size=0.3, seed=5)
        accuracies = {}
        for model_name, model in paper_model_zoo(seed=3).items():
            model.fit(Xtr, ytr)
            accuracies[model_name] = accuracy_score(yte, model.predict(Xte))
        cv = cross_validate(lambda: DecisionTreeClassifier(seed=3), X, y,
                            n_splits=p["n_splits"], seed=7)
        return {"dataset": (X, y, names), "accuracies": accuracies,
                "cv": cv}

    def read_back(self, cache, label: str, workers: int):
        hit, value = cache.get(self._key(label))
        if not hit:
            raise RuntimeError(f"{label}: expected a cache hit")
        return value

    def check(self, results: dict, tally) -> None:
        import numpy as np

        for label, p in self.plan.items():
            X, y, names = results[label]["dataset"]
            tally.check(
                X.shape[0] == p["n_sites"] * p["traces_per_site"]
                and len(names) == p["n_sites"]
                and bool(np.isfinite(X).all()),
                f"{label}: fingerprint dataset malformed: {X.shape}")

    def paper(self, results: dict) -> dict[str, float]:
        f1 = [results[label]["cv"]["f1_mean"] for label in self.plan]
        return {"table2.f1_pct": 100.0 * sum(f1) / len(f1)}


WORKLOADS = {cls.name: cls
             for cls in (CovertSweep, CountermeasurePerf, Fingerprint)}
