"""One set-up of a workload in a fresh interpreter (the benchmark starts
it several times and reports the median as ``setup_s``).

    python3 perfbench/setup_probe.py WORKLOAD
    python3 perfbench/setup_probe.py serve-mixed --prime CACHE_DIR PLAN

It imports the program, loads the experiment registry, hashes the
source tree (the result-cache key component), and imports whatever
else the workload needs before its first timed call.  With ``--prime``
it also computes the serve workload's cached answers into CACHE_DIR
and prints their checksums and paper values as one JSON line.
"""

from __future__ import annotations

import json
import sys

from bench_util import prepare_program_path


def main(argv: list[str]) -> int:
    workload = argv[0]
    prepare_program_path()
    from repro.exp.cache import ResultCache, canonical_checksum, \
        code_fingerprint
    from repro.exp.registry import all_experiments

    all_experiments()
    code_fingerprint()
    if workload in ("fingerprint", "countermeasure-perf"):
        import numpy  # noqa: F401  (the drivers defer it to first use)
        import repro.ml  # noqa: F401
    if len(argv) >= 4 and argv[1] == "--prime":
        from repro.exp.runner import run_experiment
        from paper_refs import table_value

        cache = ResultCache(argv[2])
        checksums, paper = {}, {}
        for name, params in json.loads(argv[3]):
            value = run_experiment(name, params, cache=cache).value
            checksums[name] = canonical_checksum(value)
            if name in ("fig3", "fig6"):
                paper[f"{name}.raw_kbps"] = (
                    value["rates"]["raw_bit_rate_bps"] / 1e3)
            elif name in ("fig4", "fig7"):
                paper[f"{name}.capacity_kbps_at_1pct"] = table_value(
                    value, "noise intensity (%)", 1, "capacity (Kbps)")
        print(json.dumps({"checksums": checksums, "paper": paper}))
    else:
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
