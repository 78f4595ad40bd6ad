"""The serve-mixed workload: ``python -m repro serve --workers 1`` in its
own process, an open loop of cached-hit POSTs at a fixed rate, and
beside it a fixed, seed-varied schedule of cache-miss submissions that
become jobs on the server's runner thread.

Load comes from this one process over two connections: one carries the
open-loop hits, the other the job submissions and status polls.  Each
hit is timed from when it was *due*, so a stall that delays later sends
counts against them; how late the generator itself ran is reported as
``loadgen.late_p99_ms``.
"""

from __future__ import annotations

import http.client
import json
import signal
import string
import subprocess
import sys
import threading
import time
from pathlib import Path

from bench_batch import seeded
from bench_util import HERE, ROOT, log, median, percentile, pinned_to, \
    registry_totals, work_dir

SCALES = {
    "full": {"rate": 12.0, "bits": 8, "pattern_bits": 8,
             "miss_gap_s": 0.05},
    "tiny": {"rate": 10.0, "bits": 4, "pattern_bits": 4,
             "miss_gap_s": 0.02},
}
#: Per-request client timeout, and the limit on one pass's jobs.
REQUEST_TIMEOUT_S = 10.0
PASS_TIMEOUT_S = 90.0
#: A generator whose p99 send lateness exceeds this many periods fell
#: behind its schedule; the run is flagged.
BEHIND_PERIODS = 1.0


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, scale: dict) -> None:
        self.seed = seed
        self.scale = scale
        rng = seeded(self.name, seed)
        bits, pbits = scale["bits"], scale["pattern_bits"]

        def text() -> str:
            return "".join(rng.choice(string.ascii_uppercase)
                           for _ in range(2))

        hit_texts = (text(), text())
        #: Cached answers, primed during set-up: (experiment, params).
        self.hits = [
            ("fig3", {"text": hit_texts[0], "pattern_bits": pbits}),
            ("fig6", {"text": hit_texts[1], "pattern_bits": pbits}),
            ("fig4", {"intensities": [1], "n_bits": bits}),
            ("fig7", {"intensities": [1], "n_bits": bits}),
        ]
        texts = set(hit_texts)
        while len(texts) < 4:
            texts.add(text())
        miss_texts = sorted(texts - set(hit_texts))
        fig4_points = rng.sample(range(30, 71), 2)
        fig7_points = rng.sample(range(30, 71), 2)
        latencies = rng.sample(range(5, 151), 2)
        #: Cache misses submitted each pass, in order, one every
        #: ``miss_gap_s``; each becomes a job.  Two of each kind with
        #: distinct parameters, so the pass's cost depends little on any
        #: one seeded draw.
        self.misses = []
        for i in range(2):
            self.misses += [
                ("fig4", {"intensities": [fig4_points[i]], "n_bits": bits}),
                ("fig7", {"intensities": [fig7_points[i]], "n_bits": bits}),
                ("fig12", {"latencies_ns": [latencies[i]], "n_bits": bits}),
                ("fig3", {"text": miss_texts[i], "pattern_bits": pbits}),
            ]


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on an ephemeral port, pinned to core
    ``cpu`` unless it is None."""

    def __init__(self, cache_dir: Path, log_path: Path,
                 profile_out: Path | None = None,
                 cpu: int | None = None) -> None:
        cmd = [sys.executable]
        if profile_out is not None:
            cmd += ["-m", "cProfile", "-o", str(profile_out)]
        cmd += ["-m", "repro", "serve", "--port", "0", "--workers", "1",
                "--cache-dir", str(cache_dir)]
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL,
                                     preexec_fn=pinned_to(cpu))
        self.host, self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 60.0) -> tuple[str, int]:
        marker = "listening on http://"
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            if marker in text:
                addr = text.split(marker, 1)[1].split()[0]
                host, port = addr.rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start:\n{text[-2000:]}")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=REQUEST_TIMEOUT_S)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def request(conn, method: str, path: str, body: dict | None = None
            ) -> tuple[int, dict]:
    payload = None if body is None else json.dumps(body).encode()
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    return response.status, (json.loads(raw) if raw else {})


def prime(workload: ServeMixed, cache_dir: Path, cpu: int | None = None
          ) -> dict:
    """Set-up step: a fresh interpreter computes the hit answers into
    ``cache_dir`` and reports their checksums and paper values."""
    plan = json.dumps([[name, params] for name, params in workload.hits])
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name,
         "--prime", str(cache_dir), plan],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        preexec_fn=pinned_to(cpu))
    return json.loads(out.stdout.strip().splitlines()[-1])


def start(workload: ServeMixed, tag: str, profile_out: Path | None = None,
          cpu: int | None = None) -> tuple[Server, Path, dict]:
    """Prime a fresh cache and start a server on it, both on core
    ``cpu`` unless it is None."""
    directory = work_dir(f"serve-{tag}")
    primed = prime(workload, directory / "cache", cpu)
    server = Server(directory / "cache", directory / "server.log",
                    profile_out, cpu)
    conn = server.connect()
    try:
        status, _doc = request(conn, "GET", "/healthz")
    finally:
        conn.close()
    if status != 200:
        server.stop()
        raise RuntimeError(f"/healthz answered {status}")
    return server, directory / "cache", primed


# ----------------------------------------------------------------------
# One pass: open-loop hits beside the job schedule
# ----------------------------------------------------------------------
class HitLoop(threading.Thread):
    """Open-loop cached-hit sender on its own connection."""

    def __init__(self, server: Server, hits: list, expected: dict,
                 rate: float, spans=None) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.hits = hits
        self.expected = expected
        self.period = 1.0 / rate
        self.spans = spans
        self.stop_event = threading.Event()
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []
        self.due_at: list[float] = []
        self.failures: list[str] = []
        self.sent = 0

    def run(self) -> None:
        conn = self.server.connect()
        t0 = time.perf_counter()
        i = 0
        try:
            while True:
                due = t0 + i * self.period
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if self.stop_event.is_set():
                    break
                name, params = self.hits[i % len(self.hits)]
                sent = time.perf_counter()
                rec = (self.spans.open("http.hit", experiment=name)
                       if self.spans is not None else None)
                try:
                    status, doc = request(conn, "POST",
                                          f"/v1/experiments/{name}",
                                          {"params": params})
                except (OSError, http.client.HTTPException) as exc:
                    status, doc = 0, {"error": repr(exc)}
                    conn.close()
                    conn = self.server.connect()
                finally:
                    if rec is not None:
                        self.spans.close(rec)
                done = time.perf_counter()
                self.sent += 1
                self.late_ms.append((sent - due) * 1e3)
                self.due_at.append(due)
                self.latency_ms.append((done - due) * 1e3)
                self._verify(name, status, doc)
                i += 1
        finally:
            conn.close()

    def _verify(self, name: str, status: int, doc: dict) -> None:
        if status != 200 or not doc.get("cached"):
            self.failures.append(f"hit {name}: status {status} "
                                 f"{str(doc)[:200]}")
        elif doc.get("checksum") != self.expected[name]:
            self.failures.append(f"hit {name}: served checksum "
                                 f"{doc.get('checksum')} != direct "
                                 f"{self.expected[name]}")


def finish_hits(hits: HitLoop, tally) -> None:
    """Stop the hit sender and count its requests."""
    hits.stop_event.set()
    hits.join(timeout=REQUEST_TIMEOUT_S + 5)
    if hits.is_alive():
        tally.fail("hit sender did not stop")
    for why in hits.failures:
        tally.fail(why)
    tally.ok(hits.sent - len(hits.failures))


def run_jobs(workload: ServeMixed, server: Server, tally, pins,
             spans=None) -> dict:
    """One pass: submit the miss schedule and wait until every job is
    done; returns the job documents and the pass's makespan (first
    submission to last job done, on the server's clock)."""
    conn = server.connect()
    jobs: list[dict] = []
    gap = workload.scale["miss_gap_s"]
    try:
        t0 = time.perf_counter()
        for index, (name, params) in enumerate(workload.misses):
            wait = t0 + index * gap - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            rec = (spans.open("http.submit", experiment=name)
                   if spans is not None else None)
            try:
                status, doc = request(conn, "POST",
                                      f"/v1/experiments/{name}",
                                      {"params": params})
            finally:
                if rec is not None:
                    spans.close(rec)
            if tally.check(status == 202 and not doc.get("deduplicated"),
                           f"miss {name}: expected a new job, got "
                           f"{status} {str(doc)[:200]}"):
                jobs.append({"index": index, "name": name,
                             "id": doc["job"]})
        docs = _await_jobs(conn, jobs, tally, spans)
    finally:
        conn.close()
    finished = [d for d in docs if d.get("state") == "done"]
    for job, doc in zip(jobs, docs):
        if tally.check(doc.get("state") == "done",
                       f"job {job['name']}: {doc.get('state')} "
                       f"{doc.get('error')}"):
            pins.pin(f"checksum.miss{job['index']}.{job['name']}",
                     doc["checksum"])
    makespan = (max(d["finished"] for d in finished)
                - min(d["created"] for d in finished)) if finished else 0.0
    return {"jobs": jobs, "docs": docs, "makespan_s": makespan}


def _await_jobs(conn, jobs: list[dict], tally, spans) -> list[dict]:
    deadline = time.monotonic() + PASS_TIMEOUT_S
    docs: dict[str, dict] = {}
    while len(docs) < len(jobs):
        if time.monotonic() > deadline:
            tally.fail("jobs did not finish before the pass timeout")
            break
        time.sleep(0.05)
        for job in jobs:
            if job["id"] in docs:
                continue
            rec = spans.open("http.poll") if spans is not None else None
            try:
                status, doc = request(conn, "GET", f"/v1/jobs/{job['id']}")
            finally:
                if rec is not None:
                    spans.close(rec)
            if status != 200:
                tally.fail(f"job {job['id']}: status {status}")
                docs[job["id"]] = {"state": "lost"}
            elif doc["state"] in ("done", "failed"):
                docs[job["id"]] = doc
    return [docs.get(job["id"], {"state": "timeout"}) for job in jobs]


def primed_keys(workload: ServeMixed) -> set[str]:
    from repro.exp.runner import resolve_run

    return {resolve_run(name, params)[3] for name, params in workload.hits}


def drop_results(cache_dir: Path, keep: set[str]) -> None:
    """Between passes: delete every cached result except the primed hit
    answers, so the next pass's submissions are misses again while the
    hit stream keeps being answered from the cache."""
    from repro.exp.cache import ResultCache

    for path, _stat in list(ResultCache(cache_dir).entries()):
        if path.name.split(".", 1)[0] not in keep:
            path.unlink(missing_ok=True)


def scrape(server: Server) -> tuple[dict, float]:
    """The server's registry snapshot as ``{metric: summed value}``, and
    the median request handling time (ms) estimated from its latency
    histogram's buckets."""
    conn = server.connect()
    try:
        status, doc = request(conn, "GET", "/metrics?format=json")
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return registry_totals(doc["metrics"]), _histogram_p50_ms(
        text, "repro_serve_request_seconds")


def _histogram_p50_ms(text: str, name: str) -> float:
    """Median of a Prometheus histogram (all label sets pooled), by
    linear interpolation inside the bucket that holds it."""
    cumulative: dict[float, float] = {}
    prefix = name + "_bucket{"
    for line in text.splitlines():
        if not line.startswith(prefix):
            continue
        labels, value = line[len(prefix):].rsplit("} ", 1)
        le = labels.split('le="', 1)[1].split('"', 1)[0]
        bound = float("inf") if le == "+Inf" else float(le)
        cumulative[bound] = cumulative.get(bound, 0.0) + float(value)
    total = cumulative.get(float("inf"), 0.0)
    if not total:
        return 0.0
    lower, below = 0.0, 0.0
    for bound in sorted(cumulative):
        count = cumulative[bound]
        if count >= total / 2:
            if bound == float("inf"):
                return lower * 1e3
            share = (total / 2 - below) / (count - below) if count > below \
                else 1.0
            return (lower + share * (bound - lower)) * 1e3
        lower, below = bound, count
    return lower * 1e3


def job_stats(passes: list[dict]) -> dict:
    """Server-side job timings over every finished job of the passes."""
    docs = [d for p in passes for d in p["docs"] if d.get("state") == "done"]
    events = []
    for d in docs:
        events.append((d["created"], 1))
        events.append((d["started"], -1))
    depth = depth_max = 0
    for _t, step in sorted(events):
        depth += step
        depth_max = max(depth_max, depth)
    by_name: dict[str, list[float]] = {}
    for d in docs:
        by_name.setdefault(d["name"], []).append(d["duration_s"])
    return {
        "job_p50_s": median(d["finished"] - d["created"] for d in docs),
        "job_wait_s": median(d["started"] - d["created"] for d in docs),
        "job_run_s": median(d["duration_s"] for d in docs),
        "queue_depth_max": float(depth_max),
        "trials": float(sum(d.get("trials", 0) for d in docs)),
        "wall_by_name": {k: median(v) for k, v in by_name.items()},
    }


def while_busy(hits: HitLoop, windows: list[tuple[float, float]]
               ) -> list[float]:
    """Latencies of the hits that were due while a pass's jobs ran (the
    short gaps between passes leave the server idle)."""
    return [ms for ms, due in zip(hits.latency_ms, hits.due_at)
            if any(start <= due <= end for start, end in windows)]


def flag_if_behind(late_ms: list[float], rate: float) -> None:
    """Flag a run whose generator fell behind its schedule: a p99 send
    lateness above ``BEHIND_PERIODS`` request periods."""
    late = percentile(late_ms, 99)
    if late > BEHIND_PERIODS * 1e3 / rate:
        log(f"FLAG: load generator fell behind its schedule (late p99 "
            f"{late:.2f} ms at {rate:g} req/s); hit latencies of this run "
            "are suspect")
