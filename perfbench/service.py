"""The open-loop ``service-mixed`` workload against ``repro serve``.

The server runs as its own process with its default flags (in-process
job runner, ``auto`` strategy) apart from the port and a private job
database.  One load-generator process drives it with two threads, each
with at most one connection open:

- the sender posts ``POST /v1/jobs`` at seeded Poisson due times;
- the collector reads each job's document once the job is terminal.

Latency runs from a job's due time to the server's own ``finished_at``,
so a late sender or a slow poll does not hide queueing, and completion
is not quantized by the collector's poll interval.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import cpu_seconds, median, peak_rss_mb, percentile, tree_pids
from progs import generate

HERE = os.path.dirname(os.path.abspath(__file__))

#: Offered rate (jobs/s) of the fixed-rate segment: under a quarter of
#: the capacity the first baseline found.  At 8 and 12 jobs/s host
#: stalls and GC pauses queued up enough to spread p90 by 25-50%
#: between runs (NOTES.md).
OFFERED_RPS = 6.0
#: Windows the fixed-rate segment is cut into for latency percentiles.
WINDOWS = 3
#: Latency limit on p90 for the capacity ladder (seconds).
LATENCY_LIMIT_S = 0.25
#: Share of the traced run's measured time spent at the fixed rate; the
#: capacity ladder gets the rest.
FIXED_SHARE = 0.4
#: Ladder rungs are LADDER_BASE * LADDER_STEP**k jobs/s; the search
#: starts at rung LADDER_START (41.4 jobs/s, which the first baseline
#: met).
LADDER_BASE = 12.0
LADDER_STEP = 1.1
LADDER_START = 13
#: Jobs per ladder rung: enough for ten beyond its p90.
RUNG_JOBS = 100
#: New programs that are analyzed (the rest repaired) per ten, and one
#: job in RESUBMIT_EVERY resubmits an earlier request verbatim.
ANALYZE_PER_10 = 7
RESUBMIT_EVERY = 4
#: How long the collector waits for stragglers after the last send, and
#: how often it asks about the oldest unfinished job (latency comes from
#: the job's own timestamps, so a slow poll only spares the server).
DRAIN_TIMEOUT_S = 60.0
COLLECT_POLL_S = 0.2
#: How often set-up polls its warm-up job: set-up ends when it is seen done.
WARM_POLL_S = 0.005
TERMINAL = ("done", "failed", "cancelled")


class JobStream:
    """Seeded job documents: 70% analyze / 30% repair over generated
    programs, one in four resubmitting an earlier document verbatim.
    Both shares are exact per block (seeded positions in every four jobs
    and every ten new programs), so they do not vary with the seed."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"jobs:{seed}")
        self.sent: List[dict] = []
        self.kinds: List[str] = []
        self.slots: List[bool] = []

    def next(self) -> dict:
        if not self.slots:
            self.slots = [True] + [False] * (RESUBMIT_EVERY - 1)
            self.rng.shuffle(self.slots)
        if self.slots.pop() and self.sent:
            return self.rng.choice(self.sent)
        if not self.kinds:
            self.kinds = ["analyze_request"] * ANALYZE_PER_10 + \
                ["repair_request"] * (10 - ANALYZE_PER_10)
            self.rng.shuffle(self.kinds)
        doc = {"version": 1, "kind": self.kinds.pop(),
               "source": generate(self.seed, len(self.sent))}
        self.sent.append(doc)
        return doc


def arrivals(rng: random.Random, rate: float, count: int) -> List[float]:
    """Due offsets of ``count`` Poisson arrivals at ``rate``, conditioned
    on the count: sorted uniform points over ``count / rate`` seconds."""
    window = count / rate
    return sorted(rng.uniform(0.0, window) for _ in range(count))


@dataclass
class Job:
    due_wall: float
    doc: dict
    sent_lag: float = 0.0
    admit_s: float = 0.0
    status: int = 0
    id: Optional[str] = None
    final: Optional[dict] = None
    error: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.final is not None and self.final["status"] == "done"

    @property
    def latency(self) -> float:
        return self.final["finished_at"] - self.due_wall


@dataclass
class Segment:
    rate: float
    jobs: List[Job] = field(default_factory=list)

    @property
    def done(self) -> List[Job]:
        return [j for j in self.jobs if j.done]

    @property
    def failed(self) -> int:
        return len(self.jobs) - len(self.done)

    def latencies(self) -> List[float]:
        return [j.latency for j in self.done]

    def backlog_grows(self) -> bool:
        """True when the last third of the rung waited clearly longer
        than the first third: the queue was still growing."""
        lats = [j.latency if j.done else math.inf for j in self.jobs]
        third = max(len(lats) // 3, 1)
        return median(lats[-third:]) - median(lats[:third]) > LATENCY_LIMIT_S / 2

    def passes(self) -> bool:
        return (self.failed == 0
                and percentile(self.latencies(), 90) <= LATENCY_LIMIT_S
                and not self.backlog_grows())


class Client:
    """HTTP requests on a fresh connection each, as most clients make
    them.  (On a reused keep-alive connection every request after the
    first stalls ~40 ms: see NOTES.md.)"""

    def __init__(self, port: int):
        self.port = port

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, dict]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            return resp.status, json.loads(payload) if payload else {}
        finally:
            conn.close()


class Server:
    """``repro serve`` in its own process (traced through
    ``traced_serve.py`` when a span directory is given)."""

    def __init__(self, root: str, span_dir: Optional[str] = None):
        self.root = root
        self.workdir = tempfile.mkdtemp(prefix="svc-", dir=os.path.join(HERE, "out"))
        self.port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        args = ["serve", "--port", str(self.port), "--quiet",
                "--job-db", os.path.join(self.workdir, "jobs.sqlite")]
        if span_dir is not None:
            env["PERFBENCH_SPAN_DIR"] = span_dir
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py")] + args
        else:
            cmd = [sys.executable, "-m", "repro"] + args
        self.log = open(os.path.join(self.workdir, "server.log"), "w")
        self.proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                status, doc = Client(self.port).call("GET", "/v1/health")
                if status == 200 and doc.get("status") == "ok":
                    return
            except OSError:
                pass
            time.sleep(0.02)
        raise RuntimeError("server did not become healthy")

    def stop(self) -> None:
        """Graceful drain (SIGTERM); if that hangs, kill the server and
        its workers."""
        if self.proc.poll() is None:
            pids = tree_pids(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                for pid in pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait()
        self.log.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_segment(port: int, stream: JobStream, rate: float, count: int,
                rng: random.Random) -> Segment:
    """Send ``count`` jobs at Poisson ``rate`` and collect every one."""
    seg = Segment(rate)
    offsets = arrivals(rng, rate, count)
    seg.jobs = [Job(0.0, stream.next()) for _ in offsets]
    sent: "queue.Queue[Optional[Job]]" = queue.Queue()
    base_wall, base_perf = time.time(), time.perf_counter()

    def sender() -> None:
        client = Client(port)
        for job, offset in zip(seg.jobs, offsets):
            job.due_wall = base_wall + offset
            delay = base_perf + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            job.sent_lag = t0 - (base_perf + offset)
            try:
                job.status, doc = client.call("POST", "/v1/jobs", job.doc)
            except (OSError, http.client.HTTPException) as exc:
                job.error = f"submit: {exc}"
                continue
            finally:
                job.admit_s = time.perf_counter() - t0
            if job.status == 202:
                job.id = doc["id"]
                sent.put(job)
            else:
                job.error = f"refused {job.status}: {doc.get('error', {}).get('code')}"
        sent.put(None)

    def collector() -> None:
        client = Client(port)
        deadline = None
        for job in iter(sent.get, None):
            while True:
                try:
                    status, doc = client.call("GET", f"/v1/jobs/{job.id}")
                except (OSError, http.client.HTTPException):
                    status, doc = 0, {}
                if status == 200 and doc["status"] in TERMINAL:
                    job.final = doc
                    if doc["status"] != "done":
                        job.error = f"job {doc['status']}: {doc.get('error')}"
                    break
                if deadline is None and not send_thread.is_alive():
                    deadline = time.monotonic() + DRAIN_TIMEOUT_S
                if deadline is not None and time.monotonic() > deadline:
                    job.error = "timeout"
                    break
                time.sleep(COLLECT_POLL_S)

    send_thread = threading.Thread(target=sender, name="sender")
    collect_thread = threading.Thread(target=collector, name="collector")
    send_thread.start()
    collect_thread.start()
    send_thread.join()
    collect_thread.join()
    return seg


def warm_up(port: int, doc: dict) -> None:
    """Post ``doc`` at once and poll that one job every WARM_POLL_S
    until it is done, so set-up ends when the job does, not after a
    seeded send delay or the collector's coarser poll."""
    client = Client(port)
    status, posted = client.call("POST", "/v1/jobs", doc)
    if status != 202:
        raise RuntimeError(f"warm-up job refused {status}: {posted}")
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        status, final = client.call("GET", f"/v1/jobs/{posted['id']}")
        if status == 200 and final["status"] in TERMINAL:
            if final["status"] != "done":
                raise RuntimeError(f"warm-up job {final['status']}: {final.get('error')}")
            return
        time.sleep(WARM_POLL_S)
    raise RuntimeError("warm-up job timed out")


def queue_depth_max(jobs: List[Job]) -> int:
    """Most jobs admitted but not yet started at any instant, from the
    jobs' own timestamps."""
    events = []
    for j in jobs:
        if j.final is not None and j.final.get("started_at"):
            events.append((j.final["created_at"], 1))
            events.append((j.final["started_at"], -1))
    depth = best = 0
    for _, delta in sorted(events):
        depth += delta
        best = max(best, depth)
    return best


class ServiceMixed:
    """The fixed-rate segment; in the traced run also the capacity
    ladder, against a second, untraced server so tracing does not lower
    the capacity it reports.  The caller checks every done job."""

    name = "service-mixed"

    def __init__(self, root: str):
        self.root = root
        self.server: Optional[Server] = None

    def setup(self, seed: int, span_dir: Optional[str] = None) -> None:
        self.seed = seed
        self.rng = random.Random(f"arrivals:{seed}")
        self.stream = JobStream(seed)
        self.server = self.boot(span_dir)

    def boot(self, span_dir: Optional[str] = None) -> Server:
        """A healthy server that has run one warm-up job."""
        server = Server(self.root, span_dir)
        try:
            server.wait_healthy()
            warm_up(server.port, JobStream(self.seed + 1_000_003).next())
        except BaseException:
            server.stop()
            raise
        return server

    def run(self, seconds: float, with_ladder: bool) -> dict:
        server = self.server
        fixed_seconds = seconds * (FIXED_SHARE if with_ladder else 1.0)
        cpu0 = cpu_seconds(tree_pids(server.proc.pid))
        fixed = run_segment(server.port, self.stream, OFFERED_RPS,
                            max(int(OFFERED_RPS * fixed_seconds), 1), self.rng)
        cpu = cpu_seconds(tree_pids(server.proc.pid)) - cpu0
        _, stats = Client(server.port).call("GET", "/v1/stats")
        rss = peak_rss_mb(tree_pids(server.proc.pid))
        self.close()
        ladder, capacity = [], 0.0
        if with_ladder:
            self.server = self.boot()
            ladder, capacity = self.ladder(self.server.port, seconds - fixed_seconds)
            self.close()
        self.segments = [fixed] + ladder
        return {
            "fixed": fixed, "ladder": ladder, "capacity": capacity,
            "cpu": cpu, "rss": rss, "stats": stats,
        }

    def ladder(self, port: int, budget: float) -> Tuple[List[Segment], float]:
        """Probe rungs of the fixed ladder, starting at LADDER_START and
        stepping up while rungs meet the limit (down while they miss
        it), until two adjacent rungs bracket the capacity or the time
        budget is spent.  A rung that misses is run once more before it
        counts as missed, so one stall of the host does not decide it.
        Returns the rungs run and the highest passing rate."""
        results: Dict[int, bool] = {}
        segments: List[Segment] = []
        k = LADDER_START
        start = time.perf_counter()
        while k >= 0:
            rate = LADDER_BASE * LADDER_STEP ** k
            for _ in range(2):
                seg = run_segment(port, self.stream, rate, RUNG_JOBS, self.rng)
                segments.append(seg)
                if seg.passes():
                    break
            results[k] = seg.passes()
            elapsed = time.perf_counter() - start
            if (k + 1 if results[k] else k - 1) in results:
                break
            if elapsed > budget and (any(results.values()) or elapsed > 3 * budget):
                break
            k = k + 1 if results[k] else k - 1
        passing = [k for k, ok in results.items() if ok]
        capacity = LADDER_BASE * LADDER_STEP ** max(passing) if passing else 0.0
        return segments, capacity

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def window_percentile(seg: Segment, q: float) -> float:
    """The median over WINDOWS consecutive windows of ``seg`` (in due
    order) of each window's ``q``-th latency percentile: a transient
    stall of the shared host moves one window, not the result."""
    size = len(seg.jobs) / WINDOWS
    cuts = [Segment(seg.rate, seg.jobs[round(i * size):round((i + 1) * size)])
            for i in range(WINDOWS)]
    return median([percentile(cut.latencies(), q) for cut in cuts])


#: The service's per-layer metrics and their units.
LAYER_UNITS = {
    "service.admit_p50_s": "s", "service.admit_p90_s": "s", "service.refusals": "count",
    "service.queue_wait_p50_s": "s", "service.queue_wait_p90_s": "s",
    "service.run_p50_s": "s", "service.run_p90_s": "s",
    "service.queue_depth_max": "count", "service.worker_restarts": "count",
    "loadgen.lag_p90_s": "s", "loadgen.offered_rps": "req/s",
}


def layer_metrics(fixed: Segment, stats: dict) -> Dict[str, Tuple[float, str]]:
    """The service's per-layer metrics, measured from outside over the
    fixed-rate segment: ``name -> (value, unit)``."""
    sent = [j for j in fixed.jobs if j.status]
    done = fixed.done
    waits = [j.final["started_at"] - j.final["created_at"] for j in done]
    runs = [j.final["finished_at"] - j.final["started_at"] for j in done]
    dues = [j.due_wall for j in fixed.jobs]
    values = {
        "service.admit_p50_s": percentile([j.admit_s for j in sent], 50),
        "service.admit_p90_s": percentile([j.admit_s for j in sent], 90),
        "service.refusals": sum(1 for j in sent if j.status != 202),
        "service.queue_wait_p50_s": percentile(waits, 50),
        "service.queue_wait_p90_s": percentile(waits, 90),
        "service.run_p50_s": percentile(runs, 50),
        "service.run_p90_s": percentile(runs, 90),
        "service.queue_depth_max": queue_depth_max(fixed.jobs),
        "service.worker_restarts": stats["service"]["worker_restarts"],
        "loadgen.lag_p90_s": percentile([j.sent_lag for j in fixed.jobs], 90),
        "loadgen.offered_rps": len(dues) / (max(dues) - min(dues)),
    }
    return {name: (value, LAYER_UNITS[name]) for name, value in values.items()}


def check_results(root: str, segments: List[Segment]) -> List[str]:
    """Every done job equals the in-process serial reference on the same
    request and validates against ``schemas/``."""
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.api import AnalyzeRequest, RepairRequest, Workspace
    from repro.api.schema import validate

    schemas = {}
    for name in ("job", "analyze_result", "repair_result"):
        with open(os.path.join(root, "schemas", f"{name}.v1.json")) as fh:
            schemas[name] = json.load(fh)
    problems: List[str] = []
    reference: Dict[Tuple[str, str], dict] = {}
    with Workspace(strategy="serial") as ws:
        for seg in segments:
            for job in seg.done:
                doc = job.final
                ok, why = validate(doc, schemas["job"])
                if not ok:
                    problems.append(f"job {job.id}: {why}")
                kind = job.doc["kind"]
                result = doc["result"]
                ok, why = validate(result, schemas[kind.replace("_request", "_result")])
                if not ok:
                    problems.append(f"job {job.id} result: {why}")
                key = (kind, job.doc["source"])
                if key not in reference:
                    if kind == "analyze_request":
                        reference[key] = ws.analyze(AnalyzeRequest(source=key[1])).to_json()
                    else:
                        reference[key] = ws.repair(RepairRequest(source=key[1])).to_json()
                want = reference[key]
                fields = ANSWER_FIELDS[kind]
                diff = [f for f in fields if result.get(f) != want.get(f)]
                if diff:
                    problems.append(f"job {job.id} ({kind}): {diff} differ from serial")
    return problems


#: Result fields that are a function of the request alone (timings,
#: cache counters and the strategy name are not).
ANSWER_FIELDS = {
    "analyze_request": ("level", "pairs"),
    "repair_request": ("initial_pairs", "residual_pairs", "outcomes", "plan",
                       "repaired_program", "serializable_variant",
                       "tables_before", "tables_after"),
}
